package cache

import (
	"context"
	"fmt"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// DefaultCapacity bounds each store of a Plans cache when no explicit
// capacity is given: comfortably larger than any experiment sweep while
// keeping worst-case residency (a few thousand cycles per large entry)
// modest.
const DefaultCapacity = 256

// Plans memoizes verified coverings and planned WDM networks per instance
// signature. It is safe for concurrent use; every covering CoverCtx,
// Lookup and CoverDeltaCtx hand out is a private clone, so callers may
// canonicalize or extend their copy without corrupting the cache, while
// cached *wdm.Network values, and the covering CoverKeyedCtx returns,
// are shared and must be treated as read-only.
type Plans struct {
	coverings *Store
	networks  *Store
}

// New returns a Plans cache bounding each store to capacity entries
// (capacity ≤ 0 selects DefaultCapacity).
func New(capacity int) *Plans {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Plans{coverings: NewStore(capacity), networks: NewStore(capacity)}
}

// CoverResult is a constructed covering plus provenance, mirroring
// construct.Result.
type CoverResult struct {
	Covering *cover.Covering
	Method   construct.Method
	// Optimal reports that the covering is provably optimal: ρ(n)
	// cycles for K_n on a ring, the shortest total length for a general
	// host (construct.Outcome.Optimal). Never set on a degraded result.
	Optimal bool
	// Degraded reports that the covering came from the deadline-degraded
	// anytime pipeline (Options.Degrade): valid and verified, but
	// constructed for speed, not quality. The flag rides the cache entry
	// so every caller that hits a degraded signature sees the provenance
	// end-to-end.
	Degraded bool
	// Demand is the demand graph the covering was verified against —
	// the provenance that lets a cached entry serve as the parent of an
	// incremental delta replan (ResolveDelta); nil for a general host,
	// which has no dense demand and cannot be a delta parent. It is
	// shared with the cache and must be treated as read-only.
	Demand *graph.Graph
}

// PlansStats snapshots both stores.
type PlansStats struct {
	Coverings Stats `json:"coverings"`
	Networks  Stats `json:"networks"`
}

// Stats returns the cache counters.
func (p *Plans) Stats() PlansStats {
	return PlansStats{Coverings: p.coverings.Stats(), Networks: p.networks.Stats()}
}

// CoverCtx returns a verified covering of the instance, constructing it
// on the first request and serving clones from the cache afterwards. hit
// reports whether this call avoided construction (cache hit or joined
// flight). The constructor is selected by opts.Strategy; the default
// (empty) is construct.Auto, which picks by instance class — the paper's
// closed forms for λK_n, greedy for other ring demands, the
// shortest-cycle-cover pipeline for a general host.
//
// A caller whose ctx fires while the covering is being constructed
// detaches immediately (the construction continues for other waiters,
// and is itself cancelled when the last waiter departs — see
// Store.DoCtx). A cancelled construction is never cached, so the entry
// delivered to surviving waiters is always a verified, completed
// covering.
func (p *Plans) CoverCtx(ctx context.Context, in instance.Instance, opts Options) (CoverResult, bool, error) {
	res, hit, err := p.CoverKeyedCtx(ctx, Signature(in, opts), in, opts)
	if err != nil {
		return CoverResult{}, hit, err
	}
	// A library caller gets a private clone, so no two callers (nor the
	// cache) share a mutable Cycles slice.
	res.Covering = res.Covering.Clone()
	return res, hit, nil
}

// CoverKeyedCtx is CoverCtx for a caller that has already keyed the
// request — sig must be Signature(in, opts) — and only reads the
// covering: the result's Covering is the cached one, shared with the
// cache and every other caller, like a cached *wdm.Network, and must
// not be modified. The cycled service keys each request once and
// writes its answer straight from this covering.
func (p *Plans) CoverKeyedCtx(ctx context.Context, sig string, in instance.Instance, opts Options) (CoverResult, bool, error) {
	if in.IsZero() {
		return CoverResult{}, false, fmt.Errorf("cache: instance %q has no demand graph (zero-value instance?)", in.Name)
	}
	v, hit, err := p.coverings.DoCtx(ctx, sig, func(cctx context.Context) (any, error) {
		return buildCover(cctx, in, opts)
	})
	if err != nil {
		return CoverResult{}, hit, err
	}
	return v.(CoverResult), hit, nil
}

// Lookup probes the covering cache without computing: it returns the
// cached (already verified) covering for the instance under the given
// options, or ok=false on a miss. It never joins an in-flight
// computation and never blocks beyond the store lock — the degradation
// path uses it to serve a stale-but-verified plan when the remaining
// deadline cannot fit even the anytime pipeline. The returned covering
// is the caller's private clone.
func (p *Plans) Lookup(in instance.Instance, opts Options) (CoverResult, bool) {
	if in.IsZero() {
		return CoverResult{}, false
	}
	v, ok := p.coverings.Get(Signature(in, opts))
	if !ok {
		return CoverResult{}, false
	}
	res := v.(CoverResult)
	res.Covering = res.Covering.Clone()
	return res, true
}

// LookupNetwork probes the network cache without computing (see
// Lookup). The returned network is shared and must be treated as
// read-only, like every cached *wdm.Network.
func (p *Plans) LookupNetwork(in instance.Instance, opts Options) (*wdm.Network, bool) {
	if in.Demand == nil || in.IsGeneral() {
		return nil, false
	}
	v, ok := p.networks.Get(Signature(in, opts))
	if !ok {
		return nil, false
	}
	return v.(*wdm.Network), true
}

// CoverAllToAllCtx is CoverCtx for the all-to-all instance, keyed in
// O(1): the demand graph is only materialized on a miss, so warm calls
// cost a lookup and a clone.
func (p *Plans) CoverAllToAllCtx(ctx context.Context, n int, opts Options) (CoverResult, bool, error) {
	sig := SignatureAllToAll(n, opts)
	v, hit, err := p.coverings.DoCtx(ctx, sig, func(cctx context.Context) (any, error) {
		return buildCover(cctx, instance.AllToAll(n), opts)
	})
	if err != nil {
		return CoverResult{}, hit, err
	}
	res := v.(CoverResult)
	res.Covering = res.Covering.Clone()
	return res, hit, nil
}

// NetworkAllToAllCtx is NetworkCtx for the all-to-all instance, keyed in
// O(1).
func (p *Plans) NetworkAllToAllCtx(ctx context.Context, n int, opts Options) (*wdm.Network, bool, error) {
	sig := SignatureAllToAll(n, opts)
	v, hit, err := p.networks.DoCtx(ctx, sig, func(cctx context.Context) (any, error) {
		in := instance.AllToAll(n)
		res, _, err := p.CoverAllToAllCtx(cctx, n, opts)
		if err != nil {
			return nil, err
		}
		return wdm.Plan(res.Covering, in.Demand)
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*wdm.Network), hit, nil
}

// NetworkCtx returns the planned WDM network for the instance, cached
// under the same signature scheme, with CoverCtx's cancellation
// semantics. The returned network is shared across callers and must not
// be mutated.
func (p *Plans) NetworkCtx(ctx context.Context, in instance.Instance, opts Options) (*wdm.Network, bool, error) {
	return p.NetworkKeyedCtx(ctx, Signature(in, opts), in, opts)
}

// NetworkKeyedCtx is NetworkCtx for a caller that has already keyed the
// request: sig must be Signature(in, opts).
func (p *Plans) NetworkKeyedCtx(ctx context.Context, sig string, in instance.Instance, opts Options) (*wdm.Network, bool, error) {
	if in.IsZero() {
		return nil, false, fmt.Errorf("cache: instance %q has no demand graph (zero-value instance?)", in.Name)
	}
	if in.IsGeneral() {
		// WDM planning assigns wavelengths to ring links; a general host
		// has no ring routing to assign over.
		return nil, false, fmt.Errorf("cache: WDM planning applies to ring instances only, %q is general-topology", in.Name)
	}
	v, hit, err := p.networks.DoCtx(ctx, sig, func(cctx context.Context) (any, error) {
		// wdm.Plan only reads the covering, so it plans over the cached one.
		res, _, err := p.CoverKeyedCtx(cctx, sig, in, opts)
		if err != nil {
			return nil, err
		}
		return wdm.Plan(res.Covering, in.Demand)
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*wdm.Network), hit, nil
}

// buildCover constructs and verifies a covering for the instance. Every
// covering is built one way: resolve the strategy (opts.Strategy by
// registry name, the anytime portfolio under opts.Degrade, construct.Auto
// otherwise), run it behind construct.SafeSolve, verify. Only verified
// coverings may enter the cache: an artifact that fails the independent
// verifier is dropped with an error rather than memoized.
func buildCover(ctx context.Context, in instance.Instance, opts Options) (CoverResult, error) {
	var st construct.Strategy = construct.Auto{}
	switch {
	case opts.Strategy != "":
		var ok bool
		if st, ok = construct.LookupStrategy(opts.Strategy); !ok {
			return CoverResult{}, fmt.Errorf("cache: unknown strategy %q (have %v)", opts.Strategy, construct.Strategies())
		}
	case opts.Degrade:
		st = construct.NewDegradedPortfolio()
	}
	out, err := construct.SafeSolve(ctx, st, in, construct.Options{})
	if err != nil {
		return CoverResult{}, err
	}
	// The store cancels ctx only when the last waiter has left, so nobody
	// wants this covering: skip the verification (on a large ring the
	// costliest step) and leave nothing to cache.
	if err := ctx.Err(); err != nil {
		return CoverResult{}, err
	}
	if in.IsGeneral() {
		err = cover.VerifyGeneral(out.Covering, in.Host)
	} else {
		err = cover.Verify(out.Covering, in.Demand)
	}
	if err != nil {
		return CoverResult{}, fmt.Errorf("cache: refusing to cache unverified covering: %w", err)
	}
	// A degraded result drops the optimality claim even if the anytime
	// portfolio happened to meet the bound: the flag's contract is "built
	// for speed".
	return CoverResult{Covering: out.Covering, Method: out.Method, Optimal: out.Optimal && !opts.Degrade, Degraded: opts.Degrade, Demand: in.Demand}, nil
}
