package construct

import (
	"context"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/scratch"
)

// greedyScratch is the per-call working state of the greedy constructor:
// the residual demand graph (unserved multiplicity per pair) and the
// cycle-growing buffers. Pooled so repeated constructions reuse their
// allocations.
type greedyScratch struct {
	residual graph.Graph
	verts    []int // the cycle being grown
	probe    []int // candidate cycle buffer for coverage scoring
}

var greedyScratches = scratch.NewPool(func() *greedyScratch { return &greedyScratch{} })

// GreedyCtx constructs a valid DRC-covering of an arbitrary logical
// multigraph over r, as a baseline and as the constructor for demand
// patterns the closed-form machinery does not address (random instances,
// sub-all-to-all demand). Strategy: repeatedly take the unserved request
// with the largest short-arc distance, then grow a cycle around it —
// first the third vertex, then optionally a fourth — choosing each added
// vertex to maximise the number of additional unserved requests covered.
//
// The result is always valid (every request served at least its
// multiplicity); nothing is claimed about optimality. EliminateRedundant
// is applied before returning. Cancellation is polled once per
// constructed cycle, so the builder stops within one cycle-growing step
// of ctx firing and returns ctx's error (never a partial covering).
//
// The unserved multiplicities live in a dense residual graph copied from
// the demand into pooled scratch — no per-pair map traffic — and every
// pick iterates it in deterministic ascending order.
func GreedyCtx(ctx context.Context, r ring.Ring, demand *graph.Graph) (*cover.Covering, error) {
	gs := greedyScratches.Get()
	defer greedyScratches.Put(gs)
	// The residual spans the ring even when the demand graph is smaller
	// (a sub-all-to-all demand on fewer vertices is an anticipated
	// input): cycle growing probes pairs across the whole ring, and the
	// bookkeeping must answer "not demanded" rather than range-panic.
	res := &gs.residual
	n := r.N()
	if demand.N() > n {
		n = demand.N()
	}
	res.Reset(n)
	demand.ForEachEdge(func(u, v, mult int) bool {
		res.AddEdgeMulti(u, v, mult)
		return true
	})

	cv := cover.NewCovering(r)
	done := ctx.Done()
	for res.M() > 0 {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		tu, tv := pickFarthest(r, res)
		c := gs.growCycle(r, tu, tv)
		// Serve: each covered pair loses at most one unit of unserved
		// multiplicity per cycle (a cycle provides one slot per pair).
		verts := c.Vertices()
		k := len(verts)
		for i := 0; i < k; i++ {
			u, v := verts[i], verts[(i+1)%k]
			if res.HasEdge(u, v) {
				res.RemoveEdge(u, v)
			}
		}
		cv.Add(c)
	}
	EliminateRedundant(cv, demand)
	return cv, nil
}

// pickFarthest returns the unserved pair with maximum short-arc distance.
// The residual graph iterates in ascending lexicographic order and the
// comparison is strict, so ties resolve to the lexicographically smallest
// pair — deterministically, with no map-order dependence.
func pickFarthest(r ring.Ring, residual *graph.Graph) (int, int) {
	bestU, bestV, bestD := -1, -1, -1
	residual.ForEachEdge(func(u, v, _ int) bool {
		if d := r.Dist(u, v); d > bestD {
			bestU, bestV, bestD = u, v, d
		}
		return true
	})
	return bestU, bestV
}

// growCycle builds a cycle covering the target pair {tu, tv}, greedily
// adding up to two more vertices that maximise coverage of unserved
// requests.
func (gs *greedyScratch) growCycle(r ring.Ring, tu, tv int) cover.Cycle {
	gs.verts = append(gs.verts[:0], tu, tv)
	// The target must stay cyclically consecutive: each added vertex must
	// keep at least one arc between tu and tv empty. Track which side we
	// are filling: the first added vertex fixes the side.
	side := -1 // -1 undecided; 0 = interior(tu→tv); 1 = interior(tv→tu)
	for added := 0; added < 2; added++ {
		bestV, bestGain, bestSide := -1, 0, side
		for v := 0; v < r.N(); v++ {
			if v == tu || v == tv || contains(gs.verts, v) {
				continue
			}
			vSide := 1
			if r.ArcBetween(tu, tv).ContainsVertex(r, v) {
				vSide = 0
			}
			if side != -1 && vSide != side {
				continue
			}
			gain := gs.coverageGain(r, v)
			if gain > bestGain || (gain == bestGain && gain > 0 && v < bestV) {
				bestV, bestGain, bestSide = v, gain, vSide
			}
		}
		if bestV == -1 || bestGain == 0 {
			break
		}
		gs.verts = append(gs.verts, bestV)
		side = bestSide
	}
	if len(gs.verts) == 2 {
		// No helpful third vertex: pick the lowest vertex that keeps the
		// target pair consecutive (any vertex works — it lands in one of
		// the two arcs and leaves the other empty).
		for v := 0; v < r.N(); v++ {
			if v != tu && v != tv {
				gs.verts = append(gs.verts, v)
				break
			}
		}
	}
	return cover.MustCycle(r, gs.verts...)
}

// coverageGain counts how many unserved requests the cycle verts ∪ {v}
// covers beyond those covered by verts alone, scoring candidate cycles in
// a reusable buffer instead of materializing Cycle values.
func (gs *greedyScratch) coverageGain(r ring.Ring, v int) int {
	if len(gs.verts) < 2 {
		return 0
	}
	before := 0
	if len(gs.verts) >= 3 {
		gs.probe = append(gs.probe[:0], gs.verts...)
		ring.SortByRingOrder(gs.probe)
		before = gs.unservedPairs(r, gs.probe)
	}
	gs.probe = append(gs.probe[:0], gs.verts...)
	gs.probe = append(gs.probe, v)
	if len(gs.probe) < 3 {
		// A 2-set has no pairs; count the would-be triangle's coverage
		// directly once it reaches size 3.
		return 0
	}
	ring.SortByRingOrder(gs.probe)
	return gs.unservedPairs(r, gs.probe) - before
}

// unservedPairs counts the consecutive pairs of the ring-ordered vertex
// set that still carry unserved demand.
func (gs *greedyScratch) unservedPairs(_ ring.Ring, verts []int) int {
	count := 0
	k := len(verts)
	for i := 0; i < k; i++ {
		if gs.residual.HasEdge(verts[i], verts[(i+1)%k]) {
			count++
		}
	}
	return count
}

func contains(vs []int, v int) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}
