package cyclecover

import (
	"context"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/survive"
)

// Planner is the cached planning facade: the same memoized path the
// cycled service runs, exposed to library callers. Repeated requests for
// the same instance signature (ring size, demand class, options) are
// served from an LRU-bounded cache of verified results, and concurrent
// first requests for one signature collapse onto a single computation.
//
// Every planning method takes a context.Context first: cancellation or a
// deadline detaches the caller immediately, the underlying construction
// continues for any other waiters, and is itself aborted — mid-search,
// within one branch expansion — when the last waiter departs. A
// cancelled construction never poisons the cache.
//
// A Planner is safe for concurrent use. Coverings it returns are private
// clones — callers may mutate them freely — while returned *Network
// values are shared and must be treated as read-only. The zero Planner is
// not usable; call NewPlanner.
type Planner struct {
	plans *cache.Plans
	opts  cache.Options
}

// CacheStats snapshots a Planner's cache counters.
type CacheStats = cache.PlansStats

// PlannerOption configures NewPlanner.
type PlannerOption func(*plannerConfig)

type plannerConfig struct {
	capacity int
	strategy string
}

// WithCacheSize bounds each of the planner's stores (coverings, networks)
// to n entries; n ≤ 0 selects the default.
func WithCacheSize(n int) PlannerOption {
	return func(c *plannerConfig) { c.capacity = n }
}

// WithStrategy selects the construction strategy for every plan this
// planner produces, by registry name (see Strategies). The empty default
// is the strategy CoverInstance uses: the paper's machinery for λK_n
// demands, greedy for other ring demands, the shortest-cycle-cover
// pipeline for general hosts. An unknown name surfaces as an error from
// the first planning call, not from NewPlanner.
func WithStrategy(name string) PlannerOption {
	return func(c *plannerConfig) { c.strategy = name }
}

// NewPlanner returns a planner with an empty cache.
func NewPlanner(opts ...PlannerOption) *Planner {
	var cfg plannerConfig
	for _, o := range opts {
		o(&cfg)
	}
	return &Planner{
		plans: cache.New(cfg.capacity),
		opts:  cache.Options{Strategy: cfg.strategy},
	}
}

// CoverAllToAll is the cached, cancellable CoverAllToAll: identical
// results, but the construction runs once per ring size for the
// planner's lifetime.
func (p *Planner) CoverAllToAll(ctx context.Context, n int) (cv *Covering, optimal bool, err error) {
	res, _, err := p.plans.CoverAllToAllCtx(ctx, n, p.opts)
	if err != nil {
		return nil, false, err
	}
	return res.Covering, res.Optimal, nil
}

// CoverInstance is the cached CoverInstance. Beyond caching it also
// upgrades uniform λK_n demands to the λ-composition constructor rather
// than the generic greedy path. A fired ctx aborts an in-flight
// construction (for this caller immediately; for the search itself when
// no other caller still wants it) without poisoning the cache.
func (p *Planner) CoverInstance(ctx context.Context, in Instance) (*Covering, error) {
	res, _, err := p.plans.CoverCtx(ctx, in, p.opts)
	if err != nil {
		return nil, err
	}
	return res.Covering, nil
}

// PlanWDM returns the cached WDM design for the instance, constructing
// the covering (also cached) when needed. The returned network is shared:
// treat it as read-only.
func (p *Planner) PlanWDM(ctx context.Context, in Instance) (*Network, error) {
	nw, _, err := p.plans.NetworkCtx(ctx, in, p.opts)
	return nw, err
}

// CacheStats returns the planner's cache counters.
func (p *Planner) CacheStats() CacheStats { return p.plans.Stats() }

// SignatureOf returns the canonical cache signature this planner files
// the instance under — the handle PlanDelta accepts as a parent
// reference. It is also the signature the cycled service echoes in its
// /plan responses, so a signature obtained there addresses the same plan
// here (and vice versa) as long as both use the same options.
func (p *Planner) SignatureOf(in Instance) string { return cache.Signature(in, p.opts) }

// PlannedDelta is the outcome of an incremental replan: the child plan
// plus provenance about how it was produced. Covering is the caller's
// private clone; Network is shared with the cache and must be treated as
// read-only.
type PlannedDelta struct {
	// ParentSignature and Signature identify the parent and child plans
	// in the cache; the child is admitted under Signature exactly as a
	// cold plan of the same instance would be.
	ParentSignature string
	Signature       string
	// Child is the derived child instance (parent demand plus delta).
	Child    Instance
	Covering *Covering
	Network  *Network
	// Method names the constructor that produced the covering;
	// "delta-repair" when the patched parent answered, a cold
	// constructor's name when the cold plan did (or the child was
	// already cached).
	Method string
	// Repaired reports that the covering is the parent patched for the
	// delta rather than a cold construction.
	Repaired bool
	// Optimal reports that the covering provably has ρ(n) cycles.
	Optimal bool
	// CacheHit reports that the child plan was served from the cache (or
	// joined an in-flight computation) rather than built by this call.
	CacheHit bool
}

// PlanDelta incrementally replans after a bounded instance change: the
// parent plan is fetched from the cache by its canonical signature (see
// SignatureOf), the delta is applied to its demand, and the child is
// planned by patching the parent covering: its cycles are kept, greedy
// covers what they leave unserved, and cycles the child no longer needs
// are dropped. The patch answers when it is no larger than a cold plan,
// and the cold plan answers otherwise. The child plan is verified, costs
// no more cycles than a cold replan, and is admitted under the child
// instance's own signature with the cache's single-flight semantics, so
// concurrent deltas and cold plans of the same child coalesce.
//
// An unresolvable parent signature fails with an error wrapping
// cache.ErrUnknownParent (plan the parent first); a delta invalid
// against the parent's demand wraps cache.ErrBadDelta. ctx has the
// cancellation semantics of CoverInstance for both the patch and any
// cold construction.
func (p *Planner) PlanDelta(ctx context.Context, parentSig string, d Delta) (*PlannedDelta, error) {
	dp, err := p.plans.ResolveDelta(parentSig, d)
	if err != nil {
		return nil, err
	}
	res, hit, err := p.plans.CoverDeltaCtx(ctx, dp)
	if err != nil {
		return nil, err
	}
	nw, _, err := p.plans.NetworkCtx(ctx, dp.Child, dp.Opts)
	if err != nil {
		return nil, err
	}
	return &PlannedDelta{
		ParentSignature: dp.ParentSig,
		Signature:       dp.ChildSig,
		Child:           dp.Child,
		Covering:        res.Covering,
		Network:         nw,
		Method:          string(res.Method),
		Repaired:        res.Method == construct.MethodDelta,
		Optimal:         res.Optimal,
		CacheHit:        hit,
	}, nil
}

// PlanManyResult is one instance's outcome from PlanMany. Exactly one of
// Err or the (Covering, Network) pair is meaningful; Covering is the
// caller's private clone, Network is shared and read-only.
type PlanManyResult struct {
	Covering *Covering
	Network  *Network
	Err      error
}

// PlanMany plans a heterogeneous batch of instances through the cache,
// one after another, returning results in input order. Repeated
// duplicates of one signature cost a single construction (the cache
// serves the later ones, and single-flights them against concurrent
// callers), so bulk workloads with overlapping instance classes scale
// with the number of distinct signatures, not the batch size. A
// zero-value instance in the batch yields an error in its slot, never a
// panic, and does not affect the other slots. A caller that wants
// distinct constructions to overlap calls PlanMany, or CoverInstance,
// from several goroutines: a Planner is safe for concurrent use.
//
// When ctx fires mid-batch, the slot in flight detaches from its
// construction (which is aborted once no caller wants it), the slots
// after it are skipped and report ctx's error (context.Canceled for a
// disconnect, context.DeadlineExceeded for a deadline), and completed
// slots keep their results — the returned slice always has one entry
// per input, in input order.
func (p *Planner) PlanMany(ctx context.Context, ins []Instance) []PlanManyResult {
	out := make([]PlanManyResult, len(ins))
	for i, in := range ins {
		// A fired context skips all remaining work: unstarted slots must
		// not launch new constructions for a caller that has already gone
		// away.
		if err := ctx.Err(); err != nil {
			out[i] = PlanManyResult{Err: err}
			continue
		}
		out[i] = p.planOne(ctx, in)
	}
	return out
}

// Simulation is a survivability analysis of a planned instance: the
// cached WDM design the sweep ran against plus the aggregated k-failure
// sweep report. Network is shared with the cache and must be treated as
// read-only.
type Simulation struct {
	// Network is the plan that was swept (read-only, cache-shared).
	Network *Network
	// Sweep is the aggregated failure-sweep report.
	Sweep SweepResult
}

// Simulate plans the instance through the covering cache and sweeps the
// resulting network with k-failure scenarios: plan once, sweep many.
// Repeated simulations of one instance signature — any k, sample size or
// seed — reuse the cached plan, so only the first call pays for
// construction. See SweepOptions for the sweep contract (exhaustive
// k ≤ 2, deterministic seeded sampling for k ≥ 3, a budget that
// truncates the scenario sequence).
//
// Cancellation or a deadline aborts the planning stage exactly like
// PlanWDM, and the sweep stage within one scenario evaluation; an
// interrupted call returns the context's error, never a partial report.
func (p *Planner) Simulate(ctx context.Context, in Instance, opts SweepOptions) (*Simulation, error) {
	nw, _, err := p.plans.NetworkCtx(ctx, in, p.opts)
	if err != nil {
		return nil, err
	}
	sweep, err := survive.NewSimulator(nw).SweepCtx(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &Simulation{Network: nw, Sweep: sweep}, nil
}

// planOne computes one PlanMany slot: cached covering plus cached WDM
// network for the instance.
func (p *Planner) planOne(ctx context.Context, in Instance) PlanManyResult {
	res, _, err := p.plans.CoverCtx(ctx, in, p.opts)
	if err != nil {
		return PlanManyResult{Err: err}
	}
	nw, _, err := p.plans.NetworkCtx(ctx, in, p.opts)
	if err != nil {
		return PlanManyResult{Err: err}
	}
	return PlanManyResult{Covering: res.Covering, Network: nw}
}
