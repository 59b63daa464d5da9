package construct

import (
	"context"
	"fmt"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/scratch"
)

// greedyScratch is the per-call working state of the greedy constructor:
// the residual demand graph (unserved multiplicity per pair), the
// per-distance cursors that find its farthest pair, and the cycle being
// grown. Pooled so repeated constructions reuse their allocations.
type greedyScratch struct {
	residual graph.Graph
	verts    []int // the cycle being grown
	// cursor[d] indexes, in the lexicographic order of distPair, the
	// first distance-d pair that may still be unserved, and no pair
	// farther than maxD is. The residual only shrinks, so both only move
	// forward: finding the farthest pair costs O(n²) over a whole call.
	cursor []int
	maxD   int
	// probes counts the calls to need in the current call, the
	// deterministic effort figure BenchmarkGreedy reports.
	probes int
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
// of ctx firing and returns ctx's error (never a partial covering). A
// demand on fewer vertices than the ring is accepted; one with a request
// at a vertex outside the ring is an error.
//
// The unserved multiplicities live in a dense residual graph copied from
// the demand into pooled scratch. Every choice is deterministic: the
// farthest pair breaks ties to the lexicographically smallest, each
// added vertex to the lowest label. A call costs O(n² + cycles·n).
func GreedyCtx(ctx context.Context, r ring.Ring, demand *graph.Graph) (*cover.Covering, error) {
	gs := greedyScratches.Get()
	defer greedyScratches.Put(gs)
	return gs.cover(ctx, r, demand)
}

// cover is GreedyCtx against this scratch state; it resets probes.
func (gs *greedyScratch) cover(ctx context.Context, r ring.Ring, demand *graph.Graph) (*cover.Covering, error) {
	n := r.N()
	for v := n; v < demand.N(); v++ {
		if demand.Degree(v) > 0 {
			return nil, fmt.Errorf("construct: greedy: demand vertex %d lies outside the ring of size %d", v, n)
		}
	}
	res := &gs.residual
	res.Reset(n)
	demand.ForEachEdge(func(u, v, mult int) bool {
		res.AddEdgeMulti(u, v, mult)
		return true
	})
	gs.maxD = n / 2
	gs.cursor = append(gs.cursor[:0], make([]int, gs.maxD+1)...)
	gs.probes = 0

	cv := cover.NewCovering(r)
	done := ctx.Done()
	for res.M() > 0 {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		tu, tv := gs.farthest(n)
		c := gs.growCycle(r, tu, tv)
		// Serve: each covered pair loses at most one unit of unserved
		// multiplicity per cycle (a cycle provides one slot per pair).
		verts := c.Vertices()
		k := len(verts)
		for i := 0; i < k; i++ {
			u, v := verts[i], verts[(i+1)%k]
			if gs.need(u, v) == 1 {
				res.RemoveEdge(u, v)
			}
		}
		cv.Add(c)
	}
	EliminateRedundant(cv, demand)
	return cv, nil
}

// need is 1 when the pair {u, v} still has unserved demand and 0
// otherwise; each call is one residual probe. Every residual read in
// greedy must go through need: the probe ceiling in cmd/benchgate counts
// only these calls, so a read made around it (res.HasEdge, a
// res.ForEachEdge scan) would escape the gate.
func (gs *greedyScratch) need(u, v int) int {
	gs.probes++
	if gs.residual.HasEdge(u, v) {
		return 1
	}
	return 0
}

// farthest returns the unserved pair with the largest short-arc distance
// on C_n, ties going to the lexicographically smallest pair. The caller
// guarantees one is left.
func (gs *greedyScratch) farthest(n int) (int, int) {
	for d := gs.maxD; d >= 1; d-- {
		count := n
		if 2*d == n {
			count = d
		}
		for i := gs.cursor[d]; i < count; i++ {
			if u, v := distPair(n, d, i); gs.need(u, v) == 1 {
				gs.cursor[d], gs.maxD = i, d
				return u, v
			}
		}
		gs.cursor[d] = count
	}
	panic("construct: greedy residual has edges but no unserved pair")
}

// distPair returns the i-th pair, in lexicographic order, of the pairs at
// short-arc distance d on C_n. For 2d < n there are n of them: vertex
// u < d pairs with both u+d and u+n−d, and vertex u ≥ d only with u+d.
// For 2d = n there are d, one per vertex u < d.
func distPair(n, d, i int) (int, int) {
	switch {
	case 2*d == n:
		return i, i + d
	case i >= 2*d:
		return i - d, i
	case i%2 == 0:
		return i / 2, i/2 + d
	default:
		return i / 2, i/2 + n - d
	}
}

// growCycle builds the cycle that serves the target pair {tu, tv}: a
// triangle with the third vertex that serves the most unserved pairs,
// plus a fourth vertex if one serves more. Each candidate is scored in
// O(1) from the residual, and equal scores go to the lowest label.
func (gs *greedyScratch) growCycle(r ring.Ring, tu, tv int) cover.Cycle {
	n := r.N()
	// The triangle {tu, tv, v} serves the target pair, which is unserved,
	// and the pairs {tu, v} and {v, tv}.
	w, best := -1, 0
	for v := 0; v < n && best < 3; v++ {
		if v == tu || v == tv {
			continue
		}
		if gain := 1 + gs.need(tu, v) + gs.need(v, tv); gain > best {
			w, best = v, gain
		}
	}
	gs.verts = append(gs.verts[:0], tu, tv, w)
	// A fourth vertex must join w inside the same arc a→b between the
	// target's endpoints, so the target pair stays consecutive. It splits
	// one of the triangle's pairs {a, w} or {w, b} into two.
	a, b := tu, tv
	if !r.ArcBetween(tu, tv).ContainsVertex(r, w) {
		a, b = tv, tu
	}
	aw, wb, ab, gw := gs.need(a, w), gs.need(w, b), r.Gap(a, b), r.Gap(a, w)
	x, best := -1, 0
	for v := 0; v < n && best < 2; v++ {
		g := r.Gap(a, v)
		if g == 0 || g >= ab || v == w {
			continue
		}
		var gain int
		if g < gw {
			gain = gs.need(a, v) + gs.need(v, w) - aw
		} else {
			gain = gs.need(w, v) + gs.need(v, b) - wb
		}
		if gain > best {
			x, best = v, gain
		}
	}
	if x >= 0 {
		gs.verts = append(gs.verts, x)
	}
	return cover.MustCycle(r, gs.verts...)
}
