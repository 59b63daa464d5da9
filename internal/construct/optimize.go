package construct

import (
	"context"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/scratch"
)

// tallies recycles EliminateRedundant's dense coverage tally: Θ(n²)
// slots, 2 MB at n = 1023.
var tallies = scratch.NewPool(func() *graph.Graph { return &graph.Graph{} })

// EliminateRedundant removes cycles that are unnecessary for covering the
// demand: a cycle is redundant when every pair it covers retains coverage
// at or above its demanded multiplicity after removal. Cycles are scanned
// repeatedly (largest first, so cheap small cycles survive when either
// could go) until a fixpoint; the covering is modified in place and the
// number of removed cycles returned.
//
// The optimal constructions contain no redundant cycles (each covers at
// least one pair uniquely), so this is a no-op there; it matters for
// greedy output and for experiment ablations.
func EliminateRedundant(cv *cover.Covering, demand *graph.Graph) int {
	n := cv.Ring.N()
	needFor := func(u, v int) int {
		if u >= demand.N() || v >= demand.N() {
			return 0
		}
		return demand.Multiplicity(u, v)
	}

	// Dense coverage tally on the ring's vertices: one slot per covered
	// pair per cycle. Out-of-ring pairs are not tallied (TallyCoverage
	// skips them) and never block a removal — they serve no demand.
	counts := tallies.Get()
	defer tallies.Put(counts)
	counts.Reset(n)
	cv.TallyCoverage(counts)
	inRing := func(u, v int) bool { return u >= 0 && v >= 0 && u < n && v < n }
	removed := 0
	for changed := true; changed; {
		changed = false
		// Prefer removing longer cycles: they free more slots.
		bestIdx, bestLen := -1, 0
		for i, c := range cv.Cycles {
			verts := c.Vertices()
			k := len(verts)
			ok := true
			for j := 0; j < k; j++ {
				u, v := verts[j], verts[(j+1)%k]
				if !inRing(u, v) {
					continue
				}
				if counts.Mult(u, v)-1 < needFor(u, v) {
					ok = false
					break
				}
			}
			if ok && k > bestLen {
				bestIdx, bestLen = i, k
			}
		}
		if bestIdx >= 0 {
			verts := cv.Cycles[bestIdx].Vertices()
			k := len(verts)
			for j := 0; j < k; j++ {
				if u, v := verts[j], verts[(j+1)%k]; inRing(u, v) {
					counts.RemoveEdge(u, v)
				}
			}
			cv.Cycles = append(cv.Cycles[:bestIdx], cv.Cycles[bestIdx+1:]...)
			removed++
			changed = true
		}
	}
	return removed
}

// LambdaCtx builds a DRC-covering of λK_n (every pair demanded λ times,
// the paper's first listed extension) by stacking λ copies of the
// all-to-all covering, which it builds under ctx: coverage multiplicity
// scales with λ, so validity is immediate, and the size is
// λ·|AllToAllCtx(n)| — within λ·(achieved−ρ(n)) + (λ−1)·slack of the
// generalised arc-length bound reported by cover.InstanceLowerBound.
func LambdaCtx(ctx context.Context, n, lambda int) (Result, error) {
	if lambda < 1 {
		return Result{}, errLambda(lambda)
	}
	base, err := AllToAllCtx(ctx, n)
	if err != nil {
		return Result{}, err
	}
	cv := cover.NewCovering(base.Covering.Ring)
	for i := 0; i < lambda; i++ {
		cv.Add(base.Covering.Cycles...)
	}
	return Result{Covering: cv, Method: base.Method, Optimal: base.Optimal && lambda == 1}, nil
}

type errLambda int

func (e errLambda) Error() string { return "construct: lambda must be >= 1" }
