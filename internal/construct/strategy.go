package construct

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// This file is the strategy layer: every construction path the package
// offers — the paper's closed forms, exact branch-and-bound, the
// min-conflicts repair search, greedy, and the scc members for general
// hosts (scc.go) — wrapped behind one interface, a registry to select
// them by name, a Portfolio that races a subset under one context, and
// Auto, the default that picks one member by instance class. The cache,
// the Planner facade and the cycled service all dispatch through here;
// the Portfolio's determinism rule reproduces Auto's covering exactly
// wherever the closed forms apply (see Portfolio).

// ErrNotApplicable reports that a strategy does not address an
// instance's demand class (e.g. exact search on a non-complete demand).
// A portfolio member failing with it simply drops out of the race.
var ErrNotApplicable = errors.New("construct: strategy not applicable to this instance")

// Options tunes a Strategy.Solve call.
type Options struct {
	// NodeLimit caps exact-search node expansions for exact-backed
	// strategies (0 = DefaultNodeLimit).
	NodeLimit int64
	// Bound, when non-nil, carries the best covering cost achieved by
	// competing strategies that outrank this one — cycle count for ring
	// instances, total cover length for general-topology ones (see
	// CoverCost); a solver may use it to prune work that can no longer
	// produce a strictly cheaper covering. Set by Portfolio; zero-value
	// calls run unpruned.
	Bound *atomic.Int64
}

// Outcome is a strategy's constructed covering plus provenance.
type Outcome struct {
	Covering *cover.Covering
	Method   Method
	// Optimal reports that the covering is provably optimal: it meets
	// ρ(n) on a ring instance, and has the shortest total length of any
	// cycle cover of the host on a general one.
	Optimal bool
	// Strategy is the registry name of the strategy that produced the
	// covering; for a portfolio it names the winning member.
	Strategy string
}

// Strategy is one independently selectable construction path. Solve
// honours ctx: cancellation or a deadline aborts the underlying search
// promptly (within one branch expansion for exact, within one repair
// step for min-conflicts, within one cycle for greedy) and returns ctx's
// error. A Strategy must be safe for concurrent use.
type Strategy interface {
	Name() string
	Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error)
}

// Registry returns the concrete strategies in priority order. The order
// is part of the contract: the Portfolio breaks cost ties toward the
// lowest index, which keeps its output pinned to Auto's (closed forms
// preferred, greedy the universal fallback). The ring members refuse
// general-topology instances and the scc members refuse ring instances,
// so exactly one sub-family competes per instance.
func Registry() []Strategy {
	return []Strategy{ClosedForm{}, ExactSearch{}, Repair{}, GreedySweep{}, SCCColour{}, SCCExact{}, SCCKCycle{}, SCCGreedy{}}
}

// AnytimeRegistry returns the strategies cheap enough to serve under a
// nearly-exhausted deadline: members that always terminate in one fast
// pass, never search. It is the member set the portfolio demotes to
// when the remaining context budget cannot fit the exact machinery
// (see NewDegradedPortfolio); exactly one sub-family applies per
// instance class, mirroring Registry. ClosedForm is deliberately
// excluded — its even-n path is a search with no useful time bound.
func AnytimeRegistry() []Strategy {
	return []Strategy{GreedySweep{}, SCCKCycle{}, SCCGreedy{}}
}

// NewDegradedPortfolio returns the degraded-mode portfolio: the anytime
// members raced under the standard deterministic winner rule. Results
// are valid, verified coverings with no optimality claim — callers mark
// them degraded end-to-end (see cache.Options.Degrade).
func NewDegradedPortfolio() *Portfolio { return NewPortfolio(AnytimeRegistry()...) }

// Strategies lists the selectable strategy names: the registry in
// priority order, plus "portfolio", plus any RegisterStrategy extras in
// sorted name order.
func Strategies() []string {
	reg := Registry()
	names := make([]string, 0, len(reg)+1)
	for _, s := range reg {
		names = append(names, s.Name())
	}
	names = append(names, "portfolio")
	return append(names, extraNames()...)
}

// LookupStrategy resolves a strategy by registry name ("closed-form",
// "exact", "repair", "greedy", "scc-colour", "scc-exact", "scc-kcycle",
// "scc-greedy", or "portfolio" for the full race), falling back to
// RegisterStrategy extras. Auto has no name here: the default is
// selected by naming no strategy.
func LookupStrategy(name string) (Strategy, bool) {
	if name == "portfolio" {
		return NewPortfolio(), true
	}
	for _, s := range Registry() {
		if s.Name() == name {
			return s, true
		}
	}
	return lookupExtra(name)
}

// UniformLambda reports whether g is λK_n for some uniform λ ≥ 1 — the
// demand class the paper's closed forms address. Nil-safe: an empty or
// nil graph is not a λ-class.
func UniformLambda(g *graph.Graph) (int, bool) { return g.UniformMultiplicity() }

// ClosedForm is the paper's construction machinery: Theorem 1's odd
// induction, the even-n search-plus-layered path, and the λ-composition.
// Applicable to uniform λK_n demands only.
type ClosedForm struct{}

// Name implements Strategy.
func (ClosedForm) Name() string { return "closed-form" }

// Solve implements Strategy.
func (ClosedForm) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if in.IsGeneral() {
		// A general host whose graph happens to be K_n must not fall into
		// the ring machinery: the objective and the feasibility model both
		// differ (cover the host's edges, not route demand on a ring).
		return Outcome{}, fmt.Errorf("%w: closed-form addresses ring instances, %q is general-topology", ErrNotApplicable, in.Name)
	}
	lam, ok := UniformLambda(in.Demand)
	if !ok {
		return Outcome{}, fmt.Errorf("%w: closed-form needs a uniform λK_n demand, got %q", ErrNotApplicable, in.Name)
	}
	var res Result
	var err error
	if lam == 1 {
		res, err = AllToAllCtx(ctx, in.N())
	} else {
		res, err = LambdaCtx(ctx, in.N(), lam)
	}
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Covering: res.Covering, Method: res.Method, Optimal: res.Optimal, Strategy: "closed-form"}, nil
}

// ExactSearch is budgeted branch-and-bound at Budget = ρ(n) with the
// paper's cycle lengths, run on the symmetry-reduced engine (orbit
// pruning, residual transposition table, counting bounds — DESIGN.md
// §10). Applicable to the unit all-to-all demand only; when it returns
// at all, the covering is provably optimal (no covering of K_n has
// fewer than ρ(n) cycles). It honours Options.Bound, so in a portfolio
// it stops expanding once a higher-priority member's result can no
// longer be beaten; a subtree cut by that shared bound is excluded from
// the transposition table (memo entries must stay genuine infeasibility
// proofs) and downgrades Complete, never the covering itself.
type ExactSearch struct{}

// Name implements Strategy.
func (ExactSearch) Name() string { return "exact" }

// Solve implements Strategy.
func (ExactSearch) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: exact search addresses ring instances, %q is general-topology", ErrNotApplicable, in.Name)
	}
	lam, ok := UniformLambda(in.Demand)
	if !ok || lam != 1 {
		return Outcome{}, fmt.Errorf("%w: exact search needs the unit all-to-all demand, got %q", ErrNotApplicable, in.Name)
	}
	n := in.N()
	if n < ring.MinVertices {
		return Outcome{}, fmt.Errorf("construct: n = %d below minimum %d", n, ring.MinVertices)
	}
	out := ExactCtx(ctx, n, ExactOptions{
		Budget:    cover.Rho(n),
		MaxLen:    4,
		NodeLimit: opts.NodeLimit,
		Bound:     opts.Bound,
	})
	if out.Covering == nil {
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		return Outcome{}, fmt.Errorf("construct: exact search found no covering of K_%d within budget ρ=%d (complete=%v, %d nodes)",
			n, cover.Rho(n), out.Complete, out.Nodes)
	}
	return Outcome{
		Covering: out.Covering,
		Method:   MethodExact,
		Optimal:  out.Covering.Size() == cover.Rho(n),
		Strategy: "exact",
	}, nil
}

// Repair is the min-conflicts repair search at budget ρ(n) (the even-n
// engine behind the closed-form path, exposed as its own racer).
// Applicable to the unit all-to-all demand on even rings within the
// search range; results are re-verified and only optimal converged
// coverings are returned.
type Repair struct{}

// Name implements Strategy.
func (Repair) Name() string { return "repair" }

// Solve implements Strategy.
func (Repair) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: repair search addresses ring instances, %q is general-topology", ErrNotApplicable, in.Name)
	}
	lam, ok := UniformLambda(in.Demand)
	if !ok || lam != 1 {
		return Outcome{}, fmt.Errorf("%w: repair search needs the unit all-to-all demand, got %q", ErrNotApplicable, in.Name)
	}
	n := in.N()
	if n < 4 || n%2 == 1 {
		return Outcome{}, fmt.Errorf("%w: repair search targets even n ≥ 4, got n=%d", ErrNotApplicable, n)
	}
	if cv, ok := evenMCAttempts(ctx, n); ok {
		return Outcome{Covering: cv, Method: MethodRepair, Optimal: true, Strategy: "repair"}, nil
	}
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	return Outcome{}, fmt.Errorf("construct: repair search did not converge at ρ(%d)=%d", n, cover.Rho(n))
}

// GreedySweep is the generic greedy constructor: applicable to every
// demand (including empty ones), never claims optimality. It is the
// portfolio's safety net — the one member guaranteed to produce a valid
// covering for any instance.
type GreedySweep struct{}

// Name implements Strategy.
func (GreedySweep) Name() string { return "greedy" }

// Solve implements Strategy.
func (GreedySweep) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: ring greedy addresses ring instances, %q is general-topology (scc-greedy is its counterpart)", ErrNotApplicable, in.Name)
	}
	n := in.N()
	r, err := ring.New(n)
	if err != nil {
		return Outcome{}, err
	}
	cv, err := GreedyCtx(ctx, r, in.Demand)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Covering: cv, Method: MethodGreedy, Strategy: "greedy"}, nil
}

// Auto is the default construction, used whenever no strategy is named:
// the shortest-cycle-cover pipeline (GeneralSCCCtx) for a general host,
// ClosedForm for a uniform λK_n ring demand, GreedySweep for every other
// ring demand. It returns the chosen member's Outcome unchanged, so
// Strategy names that member. Auto is deliberately not in the registry
// or LookupStrategy: a second name for the default would split the
// cache key.
type Auto struct{}

// Name implements Strategy.
func (Auto) Name() string { return "auto" }

// Solve implements Strategy. ClosedForm refuses a ring demand with
// ErrNotApplicable exactly when it is not λK_n.
func (Auto) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if in.IsGeneral() {
		return GeneralSCCCtx(ctx, in, opts)
	}
	out, err := ClosedForm{}.Solve(ctx, in, opts)
	if errors.Is(err, ErrNotApplicable) {
		return GreedySweep{}.Solve(ctx, in, opts)
	}
	return out, err
}

// Portfolio races its member strategies concurrently under one parent
// context and returns a deterministic winner. Each member runs with its
// own cancellable sub-context and a private bound fed by every
// higher-priority (lower-index) member that completes: once member i
// finishes with a covering of size s, members j > i only matter if they
// can produce strictly fewer cycles, so their bounds drop to s (exact
// search prunes against it) — and if i's covering is provably optimal,
// they are cancelled outright, since they could at best tie and the tie
// goes to i.
//
// Determinism: the winner is the lowest-cost member, ties broken toward
// the lowest registry index. Cancellation and pruning only ever remove
// results that this rule would discard anyway (a cancelled member ranks
// below an optimal earlier one and cannot beat it strictly), so the
// returned covering is independent of scheduling — with the default
// registry it is byte-identical to Auto's output wherever the closed
// forms apply, which the equivalence test pins for every demand family ×
// n ∈ 3..16.
type Portfolio struct {
	members []Strategy
}

// NewPortfolio returns a portfolio over the given members in priority
// order; with no arguments it races the full default registry.
func NewPortfolio(members ...Strategy) *Portfolio {
	if len(members) == 0 {
		members = Registry()
	}
	return &Portfolio{members: members}
}

// Name implements Strategy.
func (p *Portfolio) Name() string { return "portfolio" }

// Solve implements Strategy.
func (p *Portfolio) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if len(p.members) == 0 {
		return Outcome{}, errors.New("construct: portfolio has no members")
	}
	if err := ctx.Err(); err != nil {
		// Don't start a race for a caller that already gave up — even the
		// memoized paths would be wasted work.
		return Outcome{}, err
	}
	type slot struct {
		out  Outcome
		err  error
		size int
	}
	k := len(p.members)
	results := make([]slot, k)
	bounds := make([]atomic.Int64, k)
	cancels := make([]context.CancelFunc, k)
	ctxs := make([]context.Context, k)
	for i := range p.members {
		bounds[i].Store(math.MaxInt64)
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()

	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, m := range p.members {
		wg.Add(1)
		go func(i int, m Strategy) {
			defer wg.Done()
			mopts := opts
			mopts.Bound = &bounds[i]
			// SafeSolve: a member that panics drops out of the race as an
			// errored slot (its goroutine would otherwise kill the process —
			// the pool's recover boundary cannot reach goroutines the
			// portfolio spawns itself).
			out, err := SafeSolve(ctxs[i], m, in, mopts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				results[i] = slot{err: err}
				return
			}
			size := CoverCost(in, out.Covering)
			results[i] = slot{out: out, size: size}
			for j := i + 1; j < k; j++ {
				casMin(&bounds[j], int64(size))
			}
			if out.Optimal {
				// Nothing beats a provably optimal covering strictly; lower-
				// index members may still tie and win the tie, so only the
				// higher-index racers are cancelled.
				for j := i + 1; j < k; j++ {
					cancels[j]()
				}
			}
		}(i, m)
	}
	wg.Wait()

	best := -1
	for i := range results {
		if results[i].err != nil || results[i].out.Covering == nil {
			continue
		}
		if best == -1 || results[i].size < results[best].size {
			best = i
		}
	}
	if best == -1 {
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		errs := make([]error, 0, k)
		for i := range results {
			errs = append(errs, fmt.Errorf("%s: %w", p.members[i].Name(), results[i].err))
		}
		return Outcome{}, fmt.Errorf("construct: no portfolio member produced a covering: %w", errors.Join(errs...))
	}
	return results[best].out, nil
}

// casMin lowers a to v if v is smaller (atomic compare-and-swap loop).
func casMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
