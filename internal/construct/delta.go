package construct

import (
	"context"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// DeltaScratch owns the dense tally behind DeltaRepair: the child's
// demand that the parent's cycles leave unserved. It is Θ(n²), so reusing
// it keeps a warm patch's allocations to the covering it returns and the
// cycles greedy adds. A DeltaScratch is not safe for concurrent use; pool
// instances (see internal/scratch) to share across goroutines.
type DeltaScratch struct {
	residual graph.Graph
}

// NewDeltaScratch returns an empty scratch, ready for DeltaRepair.
func NewDeltaScratch() *DeltaScratch { return &DeltaScratch{} }

// DeltaOptions tunes DeltaRepair.
type DeltaOptions struct {
	// Budget is the largest size the patch may answer with; ≤ 0 selects
	// the parent's size. Callers targeting "no worse than a cold replan"
	// pass the cold pipeline's (predicted or computed) size.
	Budget int
	// Seed is ignored: the patch draws no random numbers. It stays so
	// that existing callers, such as _perfbench's traced replay (a
	// separate module), compile unchanged.
	Seed int64
	// Scratch supplies the reusable tally; nil allocates one for this
	// call.
	Scratch *DeltaScratch
}

// DeltaRepair patches a parent covering into a covering of the child
// demand (a multigraph: each pair must be covered at least its
// multiplicity) after a bounded instance change. It keeps the parent's
// cycles, covers what they leave unserved with GreedyCtx, and then drops
// every cycle the child no longer needs (EliminateRedundant). Nothing is
// searched and nothing is random. It returns ok = false when the patch
// is larger than the budget, when ctx fires during greedy, or for a nil
// parent or demand or a demand not on r's n vertices; callers then fall
// back to cold construction. It never returns an unverified covering:
// the result is checked by the independent verifier first.
//
// The result is a new covering with its own Cycles slice. Its cycles
// share vertex arrays with the parent's (cycles are immutable values),
// so the parent is left intact; a caller that admits the result to a
// cache may still CloneDetached it to hold it apart from the parent.
//
//cyclecover:noalloc
func DeltaRepair(ctx context.Context, r ring.Ring, parent *cover.Covering, demand *graph.Graph, opts DeltaOptions) (*cover.Covering, bool) {
	if parent == nil || demand == nil || demand.N() != r.N() {
		return nil, false
	}
	sc := opts.Scratch
	if sc == nil {
		sc = NewDeltaScratch()
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = len(parent.Cycles)
	}
	// The unserved multiplicity: the child's demand less one unit per
	// pair slot of the parent, floored at zero (RemoveEdge stops there).
	res := &sc.residual
	res.CopyFrom(demand)
	for _, c := range parent.Cycles {
		verts := c.Vertices()
		k := len(verts)
		for i := 0; i < k; i++ {
			res.RemoveEdge(verts[i], verts[(i+1)%k])
		}
	}
	added, err := GreedyCtx(ctx, r, res)
	if err != nil {
		return nil, false
	}
	out := cover.NewCovering(r)
	out.Cycles = make([]cover.Cycle, 0, len(parent.Cycles)+len(added.Cycles)) //cyclecover:allocok the result owns its Cycles slice, never the parent's
	out.Add(parent.Cycles...)
	out.Add(added.Cycles...)
	EliminateRedundant(out, demand)
	if out.Size() > budget || cover.Verify(out, demand) != nil {
		return nil, false
	}
	return out, true
}

// DeltaBudget predicts the cycle count the cold construction pipeline
// produces for a uniform λK_n demand: λ·ρ(n), since the closed forms
// reach ρ(n) at every n. ok is false for non-uniform demands, where the
// greedy constructor sets the cold size and the caller must measure
// rather than predict.
func DeltaBudget(demand *graph.Graph) (int, bool) {
	lam, ok := UniformLambda(demand)
	if !ok {
		return 0, false
	}
	return lam * cover.Rho(demand.N()), true
}
