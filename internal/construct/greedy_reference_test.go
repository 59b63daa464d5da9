package construct

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// referenceGreedy is the greedy constructor as it was before the
// per-distance cursors and O(1) candidate scoring: a full scan of the
// residual for the farthest pair per cycle, and every candidate vertex
// scored by sorting and re-counting the candidate cycle. It is kept only
// to pin that GreedyCtx makes the same choices.
func referenceGreedy(r ring.Ring, demand *graph.Graph) *cover.Covering {
	n := max(r.N(), demand.N())
	res := graph.New(n)
	demand.ForEachEdge(func(u, v, mult int) bool {
		res.AddEdgeMulti(u, v, mult)
		return true
	})
	cv := cover.NewCovering(r)
	for res.M() > 0 {
		bestU, bestV, bestD := -1, -1, -1
		res.ForEachEdge(func(u, v, _ int) bool {
			if d := r.Dist(u, v); d > bestD {
				bestU, bestV, bestD = u, v, d
			}
			return true
		})
		c := referenceGrow(r, res, bestU, bestV)
		verts := c.Vertices()
		for i, u := range verts {
			if v := verts[(i+1)%len(verts)]; res.HasEdge(u, v) {
				res.RemoveEdge(u, v)
			}
		}
		cv.Add(c)
	}
	EliminateRedundant(cv, demand)
	return cv
}

func referenceGrow(r ring.Ring, res *graph.Graph, tu, tv int) cover.Cycle {
	verts := []int{tu, tv}
	var probe []int
	unserved := func(vs ...int) int {
		probe = append(probe[:0], vs...)
		ring.SortByRingOrder(probe)
		count := 0
		for i, u := range probe {
			if res.HasEdge(u, probe[(i+1)%len(probe)]) {
				count++
			}
		}
		return count
	}
	side := -1
	for added := 0; added < 2; added++ {
		bestV, bestGain, bestSide := -1, 0, side
		for v := 0; v < r.N(); v++ {
			if slices.Contains(verts, v) {
				continue
			}
			vSide := 1
			if r.ArcBetween(tu, tv).ContainsVertex(r, v) {
				vSide = 0
			}
			if side != -1 && vSide != side {
				continue
			}
			before := 0
			if len(verts) >= 3 {
				before = unserved(verts...)
			}
			gain := unserved(append(verts, v)...) - before
			if gain > bestGain || (gain == bestGain && gain > 0 && v < bestV) {
				bestV, bestGain, bestSide = v, gain, vSide
			}
		}
		if bestV == -1 || bestGain == 0 {
			break
		}
		verts = append(verts, bestV)
		side = bestSide
	}
	if len(verts) == 2 {
		for v := 0; v < r.N(); v++ {
			if v != tu && v != tv {
				verts = append(verts, v)
				break
			}
		}
	}
	return cover.MustCycle(r, verts...)
}

// randomMultiDemand returns a demand on n vertices holding each pair with
// probability density, at multiplicity 1 or 2.
func randomMultiDemand(n int, density float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				g.AddEdgeMulti(u, v, 1+rng.Intn(2))
			}
		}
	}
	return g
}

// TestGreedyMatchesReference pins that GreedyCtx returns exactly the
// reference constructor's cycles, in the same order, across random
// multigraph demands at every density, λK_n, hubs, neighbours, a demand
// on fewer vertices than the ring, and two rings beyond any workload's.
// The race detector slows the reference's full rescans about tenfold,
// so a race build checks rings up to 30 only.
func TestGreedyMatchesReference(t *testing.T) {
	type tc struct {
		name   string
		r      ring.Ring
		demand *graph.Graph
	}
	var cases []tc
	maxN, bigN := 70, []int{101, 150}
	if raceEnabled {
		maxN, bigN = 30, nil
	}
	for n := 3; n <= maxN; n++ {
		r := ring.MustNew(n)
		for _, density := range []float64{0.05, 0.15, 0.3, 0.5, 0.8, 1} {
			for seed := int64(1); seed <= 4; seed++ {
				cases = append(cases, tc{fmt.Sprintf("n=%d/random:%g:%d", n, density, seed), r,
					randomMultiDemand(n, density, int64(n)*1000+seed)})
			}
		}
		for lam := 1; lam <= 3; lam++ {
			cases = append(cases, tc{fmt.Sprintf("n=%d/lambda:%d", n, lam), r, graph.LambdaComplete(n, lam)})
		}
		cases = append(cases,
			tc{fmt.Sprintf("n=%d/hub:0", n), r, instance.Hub(n, 0).Demand},
			tc{fmt.Sprintf("n=%d/hub:%d", n, n/2), r, instance.Hub(n, n/2).Demand},
			tc{fmt.Sprintf("n=%d/neighbors", n), r, instance.Neighbors(n).Demand})
		if n > 4 {
			cases = append(cases, tc{fmt.Sprintf("n=%d/sub-ring", n), r, randomMultiDemand(n-2, 0.5, int64(n))})
		}
	}
	for _, n := range bigN {
		in, err := instance.RandomSymmetric(n, 0.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("n=%d/random:0.5:1", n), ring.MustNew(n), in.Demand})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, err := GreedyCtx(context.Background(), c.r, c.demand)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceGreedy(c.r, c.demand)
			if !slices.EqualFunc(got.Cycles, want.Cycles, cover.Cycle.Equal) {
				t.Fatalf("cycles differ from the reference:\ngot  %v\nwant %v", got.Cycles, want.Cycles)
			}
		})
	}
}
