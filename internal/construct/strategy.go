package construct

import (
	"context"
	"errors"
	"fmt"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// This file is the strategy layer: every construction path the package
// offers — the paper's closed forms, exact branch-and-bound, greedy, and
// the scc members for general hosts (scc.go) — wrapped behind one
// interface, a registry to select them by name, a Portfolio that tries a
// subset in priority order under one context, and Auto, the default
// that picks one member by instance class. The cache, the Planner facade and the cycled service all
// dispatch through here; the Portfolio's determinism rule reproduces
// Auto's covering exactly wherever the closed forms apply (see
// Portfolio).

// ErrNotApplicable reports that a strategy does not address an
// instance's demand class (e.g. exact search on a non-complete demand).
// A portfolio member failing with it simply drops out.
var ErrNotApplicable = errors.New("construct: strategy not applicable to this instance")

// Options tunes a Strategy.Solve call.
type Options struct {
	// NodeLimit caps exact-search node expansions for exact-backed
	// strategies (0 = DefaultNodeLimit).
	NodeLimit int64
	// Bound, when positive, is the best covering cost already achieved
	// by strategies that outrank this one — cycle count for ring
	// instances, total cover length for general-topology ones (see
	// CoverCost); a solver may use it to prune work that can no longer
	// produce a strictly cheaper covering. Set by Portfolio; zero means
	// no bound, and the call runs unpruned.
	Bound int
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
// promptly (within one branch expansion for exact, within one cycle for
// greedy; the closed forms check it before and after their build) and
// returns ctx's error. A Strategy must be safe for concurrent use.
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
	return []Strategy{ClosedForm{}, ExactSearch{}, GreedySweep{}, SCCColour{}, SCCExact{}, SCCKCycle{}, SCCGreedy{}}
}

// AnytimeRegistry returns the strategies cheap enough to serve under a
// nearly-exhausted deadline: members that always terminate in one fast
// pass, never search. It is the member set the portfolio demotes to
// when the remaining context budget cannot fit the exact machinery
// (see NewDegradedPortfolio); exactly one sub-family applies per
// instance class, mirroring Registry. ClosedForm is not a member: it
// was left out while its even-n path searched. Every K_n is now a
// closed form in O(n²), so it could join; the membership is unchanged
// until a change measures that (ROADMAP).
func AnytimeRegistry() []Strategy {
	return []Strategy{GreedySweep{}, SCCKCycle{}, SCCGreedy{}}
}

// NewDegradedPortfolio returns the degraded-mode portfolio: the anytime
// members tried under the standard deterministic winner rule. Results
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
// "exact", "greedy", "scc-colour", "scc-exact", "scc-kcycle",
// "scc-greedy", or "portfolio" for the full registry in priority
// order), falling back to RegisterStrategy extras. Auto has no name
// here: the default is selected by naming no strategy.
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
// induction, the Theorem 2 even construction, and the λ-composition.
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
// it does not expand a subtree that cannot beat a higher-priority
// member's result; a subtree cut by that bound is excluded from the
// transposition table (memo entries must stay genuine infeasibility
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

// Portfolio tries its member strategies one after another, in priority
// order, under one context, and returns a deterministic winner: the
// lowest-cost member, ties broken toward the lowest index. Each member
// gets the best cost so far as its bound (Options.Bound): once member i
// has a covering of cost s, members j > i only matter if they can
// produce a strictly cheaper one, so exact search prunes against s. A
// provably optimal covering ends the loop, since every later member
// could at best tie it and the tie goes to the earlier one. A member
// that fails — refusal, error or panic (SafeSolve) — drops out.
//
// Determinism: the loop is a fixed schedule, and the bound and the early
// stop only ever remove results the winner rule would discard anyway, so
// with the default registry the returned covering is byte-identical to
// Auto's wherever the closed forms apply, which the equivalence test pins
// for every demand family × n ∈ 3..16. When ctx fires, the loop stops and
// returns the best covering found so far, or ctx's error if there is
// none.
type Portfolio struct {
	members []Strategy
}

// NewPortfolio returns a portfolio over the given members in priority
// order; with no arguments it tries the full default registry.
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
	var best Outcome
	opts.Bound = 0 // the best cost so far; 0 until a member answers
	// The members that failed, with their errors, kept as they come and
	// wrapped only if no member answers: most calls have a winner, and
	// the wrapping would be thrown away.
	type failure struct {
		m   Strategy
		err error
	}
	var failed []failure
	for _, m := range p.members {
		if ctx.Err() != nil {
			break
		}
		// SafeSolve: a member that panics drops out like one that errs.
		out, err := SafeSolve(ctx, m, in, opts)
		if err != nil || out.Covering == nil {
			if failed == nil {
				failed = make([]failure, 0, len(p.members))
			}
			failed = append(failed, failure{m, err})
			continue
		}
		if c := CoverCost(in, out.Covering); best.Covering == nil || c < opts.Bound {
			best, opts.Bound = out, c
		}
		if out.Optimal {
			break
		}
	}
	if best.Covering != nil {
		return best, nil
	}
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	errs := make([]error, len(failed))
	for i, f := range failed {
		errs[i] = fmt.Errorf("%s: %w", f.m.Name(), f.err)
	}
	return Outcome{}, fmt.Errorf("construct: no portfolio member produced a covering: %w", errors.Join(errs...))
}
