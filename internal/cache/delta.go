package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/scratch"
)

// ErrUnknownParent reports that a delta's parent signature resolved to no
// cached plan: the parent was never planned here, or has been evicted.
// Retryable by planning the parent first.
var ErrUnknownParent = errors.New("cache: unknown parent plan")

// ErrBadDelta reports a delta that is invalid against its parent's demand
// (endpoints out of range, removal from an absent pair, ...).
var ErrBadDelta = errors.New("cache: invalid delta")

// DeltaPlan is a resolved incremental replanning request: the cached
// parent, the derived child instance, and the signatures binding both to
// the cache. Produced by ResolveDelta, consumed by CoverDeltaCtx; the
// embedded Parent covering and demand are shared with the cache and must
// be treated as read-only.
type DeltaPlan struct {
	ParentSig string
	Parent    CoverResult
	Delta     instance.Delta
	Child     instance.Instance
	ChildSig  string
	Opts      Options
}

// ResolveDelta resolves an incremental replanning request: it fetches the
// parent plan by its canonical signature, applies the delta to the
// parent's demand, and derives the child instance plus its cache
// signature under the parent's own options (parsed back from the
// signature, so a parent planned with a strategy or optimiser suffix
// replans its children the same way). Errors wrap ErrUnknownParent or
// ErrBadDelta so transports can map them to their 4xx table.
func (p *Plans) ResolveDelta(parentSig string, d instance.Delta) (DeltaPlan, error) {
	v, ok := p.coverings.Get(parentSig)
	if !ok {
		return DeltaPlan{}, fmt.Errorf("%w: no cached plan under signature %q", ErrUnknownParent, parentSig)
	}
	if isGeneralSignature(parentSig) {
		// A general-topology plan carries no dense demand to apply an edge
		// delta to; rebuilding the child from one would silently turn it
		// into a ring instance and lose the host.
		return DeltaPlan{}, fmt.Errorf("%w: parent %q is a general-topology plan; delta replanning applies to ring instances only", ErrBadDelta, parentSig)
	}
	parent := v.(CoverResult)
	if parent.Demand == nil {
		return DeltaPlan{}, fmt.Errorf("%w: plan %q carries no demand provenance", ErrUnknownParent, parentSig)
	}
	childDemand, err := d.Apply(parent.Demand)
	if err != nil {
		return DeltaPlan{}, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	opts := optionsFromSignature(parentSig)
	child := instance.Instance{
		Name:   fmt.Sprintf("%s + %s", parentSig, d),
		Demand: childDemand,
	}
	return DeltaPlan{
		ParentSig: parentSig,
		Parent:    parent,
		Delta:     d,
		Child:     child,
		ChildSig:  Signature(child, opts),
		Opts:      opts,
	}, nil
}

// isGeneralSignature reports whether a canonical signature was produced
// by the general-topology branch of Signature (a `t=h…` host component).
func isGeneralSignature(sig string) bool {
	for _, seg := range strings.Split(sig, ";") {
		if strings.HasPrefix(seg, "t=h") {
			return true
		}
	}
	return false
}

// optionsFromSignature recovers the Options encoded in a canonical
// signature's suffix segments (see withOptions). Unknown segments are
// ignored: they cannot have been produced by withOptions, and a parent
// signature that resolved in the cache is canonical by construction.
func optionsFromSignature(sig string) Options {
	var opts Options
	for _, seg := range strings.Split(sig, ";") {
		if strategy, ok := strings.CutPrefix(seg, "s="); ok {
			opts.Strategy = strategy
		}
	}
	return opts
}

// CoverDeltaCtx plans the child of a resolved delta from the parent
// covering and admits the result under the child's own canonical
// signature — so a later cold request for the same instance is a cache
// hit, and concurrent delta or cold requests for the child single-flight
// onto one computation. hit reports a served-from-cache or joined-flight
// result. The answer costs no more cycles than a cold replan: the patch
// answers only when it is no larger than the cold pipeline's (predicted
// or measured) size, and the cold cover answers otherwise.
func (p *Plans) CoverDeltaCtx(ctx context.Context, dp DeltaPlan) (CoverResult, bool, error) {
	if dp.Child.Demand == nil {
		return CoverResult{}, false, fmt.Errorf("cache: delta plan has no child demand (zero-value DeltaPlan?)")
	}
	v, hit, err := p.coverings.DoCtx(ctx, dp.ChildSig, func(cctx context.Context) (any, error) {
		return buildDelta(cctx, dp)
	})
	if err != nil {
		return CoverResult{}, hit, err
	}
	res := v.(CoverResult)
	res.Covering = res.Covering.Clone()
	return res, hit, nil
}

// deltaScratches pools the patch's dense tally across delta builds.
var deltaScratches = scratch.NewPool(construct.NewDeltaScratch)

// buildDelta constructs the child covering: the parent patched for the
// delta when that is no larger than a cold plan, the cold plan
// otherwise. Like buildCover, only verified coverings are returned for
// admission.
func buildDelta(ctx context.Context, dp DeltaPlan) (CoverResult, error) {
	in := dp.Child
	n := in.N()
	r, err := ring.New(n)
	if err != nil {
		return CoverResult{}, err
	}
	// An explicit strategy is a contract about how the covering is built;
	// the patch would be a different constructor, so those parents
	// replan their children cold through the same strategy.
	if dp.Opts.Strategy != "" {
		return buildCover(ctx, in, dp.Opts)
	}
	// The cold size: predicted for uniform λ classes, measured by the
	// greedy constructor otherwise (the greedy result then doubles as the
	// cold answer).
	var cold *cover.Covering
	budget, predicted := construct.DeltaBudget(in.Demand)
	if !predicted {
		g, err := construct.GreedyCtx(ctx, r, in.Demand)
		if err != nil {
			return CoverResult{}, err
		}
		cold, budget = g, g.Size()
	}
	sc := deltaScratches.Get()
	patched, ok := construct.DeltaRepair(ctx, r, dp.Parent.Covering, in.Demand, construct.DeltaOptions{
		Budget:  budget,
		Scratch: sc,
	})
	deltaScratches.Put(sc)
	var res CoverResult
	if ok {
		// The patch shares vertex arrays with the cached parent; the
		// admitted copy owns its own.
		cv := patched.CloneDetached()
		cv.Canonicalize()
		res = CoverResult{Covering: cv, Method: construct.MethodDelta}
		// A patched covering of K_n at exactly ρ(n) cycles is proved
		// optimal by size alone (ρ is the paper's lower bound); the claim
		// is re-checked below by the same verification buildCover uses.
		if lam, uniform := construct.UniformLambda(in.Demand); uniform && lam == 1 && cv.Size() == cover.Rho(n) {
			res.Optimal = true
		}
	} else {
		if err := ctx.Err(); err != nil {
			return CoverResult{}, err
		}
		if cold == nil {
			// Uniform λ child whose patch exceeded λ·ρ(n): cold
			// construction through the normal pipeline.
			return buildCover(ctx, in, dp.Opts)
		}
		res = CoverResult{Covering: cold, Method: construct.MethodGreedy}
	}
	if err := cover.Verify(res.Covering, in.Demand); err != nil {
		return CoverResult{}, fmt.Errorf("cache: refusing to cache unverified covering: %w", err)
	}
	res.Demand = in.Demand
	return res, nil
}
