package construct

import (
	"context"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// DeltaScratch owns the reusable state behind DeltaRepair: the
// min-conflicts search state, the output covering and the vertex buffers
// backing its cycles. After one warm-up call at a given ring size,
// subsequent repairs through the same scratch allocate nothing. A
// DeltaScratch is not safe for concurrent use; pool instances (see
// internal/scratch) to share across goroutines.
type DeltaScratch struct {
	st   mcState
	cv   cover.Covering
	bufs [][]int
}

// NewDeltaScratch returns an empty scratch, ready for DeltaRepair.
func NewDeltaScratch() *DeltaScratch { return &DeltaScratch{} }

// DeltaRepair's search budget: deltaAttempts restarts with distinct
// derived RNG seeds, each of at most deltaBaseIters + deltaItersPerNode·n
// min-conflicts iterations. Bounded deltas leave only a handful of pairs
// in conflict, so this is orders of magnitude below the cold search
// budgets.
const (
	deltaAttempts     = 3
	deltaBaseIters    = 4_000
	deltaItersPerNode = 400
)

// DeltaOptions tunes DeltaRepair.
type DeltaOptions struct {
	// Budget fixes the number of cycles in the repaired covering; ≤ 0
	// selects the parent's size. Callers targeting "no worse than a cold
	// replan" pass the cold pipeline's (predicted or computed) size.
	Budget int
	// Seed offsets the deterministic restart seed sequence.
	Seed int64
	// Scratch supplies the reusable state; nil allocates ephemeral
	// state, losing the allocation-free warm path but nothing else.
	Scratch *DeltaScratch
}

// DeltaRepair warm-starts the min-conflicts search from a surviving
// parent covering after a bounded instance change and repairs it into a
// covering of the child demand (a multigraph: each pair must be covered
// at least its multiplicity). It returns ok = false when the search
// exhausts its budget without converging — callers fall back to cold
// construction — and never an unverified covering: the result is checked
// by the independent verifier before being returned.
//
// The returned covering is materialized in the scratch's reusable
// buffers and is only valid until the scratch's next use: callers that
// retain it (e.g. for cache admission) must CloneDetached it first.
//
//cyclecover:noalloc
func DeltaRepair(ctx context.Context, r ring.Ring, parent *cover.Covering, demand *graph.Graph, opts DeltaOptions) (*cover.Covering, bool) {
	if parent == nil || demand == nil {
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
	if demand.M() == 0 {
		// Nothing to cover: the empty covering trivially verifies.
		sc.cv.Ring = r
		sc.cv.Cycles = sc.cv.Cycles[:0]
		return &sc.cv, true
	}
	if budget < 1 {
		return nil, false
	}
	iters := deltaBaseIters + deltaItersPerNode*r.N()
	ok := false
	for a := 0; a < deltaAttempts && !ok && ctx.Err() == nil; a++ {
		sc.st.init(mcProblem{
			r:       r,
			budget:  budget,
			seedCov: parent,
			demand:  demand,
			rngSeed: opts.Seed + 9973*int64(a),
		})
		ok = sc.st.run(ctx, iters)
	}
	if !ok {
		return nil, false
	}
	// Materialize the converged cycles into scratch-owned buffers; the
	// search state's own buffers are rewritten by the next init.
	sc.cv.Ring = r
	sc.cv.Cycles = sc.cv.Cycles[:0]
	for len(sc.bufs) < len(sc.st.cycles) {
		sc.bufs = append(sc.bufs, nil)
	}
	for i, c := range sc.st.cycles {
		sc.bufs[i] = append(sc.bufs[i][:0], c.verts...)
		sc.cv.Cycles = append(sc.cv.Cycles, cover.CycleFromSortedVerts(sc.bufs[i]))
	}
	if err := cover.Verify(&sc.cv, demand); err != nil {
		return nil, false
	}
	return &sc.cv, true
}

// DeltaBudget predicts the cycle count the cold construction pipeline
// would produce for a uniform λK_n demand: λ times the all-to-all base
// size — ρ(n) wherever the closed forms and searches reach it, the
// layered size beyond the search limit. ok is false for non-uniform
// demands, where the greedy constructor sets the cold size and the
// caller must measure rather than predict.
func DeltaBudget(demand *graph.Graph) (int, bool) {
	lam, ok := UniformLambda(demand)
	if !ok {
		return 0, false
	}
	n := demand.N()
	base := cover.Rho(n)
	if n%2 == 0 && n > searchEvenLimit {
		base = LayeredEvenSize(n)
	}
	return lam * base, true
}
