package wdm

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// The reference functions below compute the assignment and the optical
// facts straight from their definitions: a scan of every cycle per
// demand pair, and a Contains loop over every cycle per node. They are
// the oracle the single-pass Plan and the stored facts are pinned
// against.

// refAssignment assigns each demand pair to the first cycle, in index
// order, that covers it.
func refAssignment(cv *cover.Covering, demand *graph.Graph) map[graph.Edge]int {
	as := make(map[graph.Edge]int)
	for _, e := range demand.Edges() {
		for i, c := range cv.Cycles {
			if c.CoversPair(e.U, e.V) {
				as[e] = i
				break
			}
		}
	}
	return as
}

func refTransitAt(nw *Network, v int) int {
	t := 0
	for _, s := range nw.Subnets {
		if !s.Cycle.Contains(v) {
			t += 2
		}
	}
	return t
}

func refMaxTransit(nw *Network) int {
	m := 0
	for v := 0; v < nw.Ring.N(); v++ {
		m = max(m, refTransitAt(nw, v))
	}
	return m
}

func refADMCount(nw *Network) int {
	t := 0
	for _, s := range nw.Subnets {
		t += s.Cycle.Len()
	}
	return t
}

func refCost(m CostModel, nw *Network) float64 {
	totalTransit := 0
	for v := 0; v < nw.Ring.N(); v++ {
		totalTransit += refTransitAt(nw, v)
	}
	channels := float64(nw.Wavelengths() * nw.Ring.Links())
	return m.PerWavelength*float64(nw.Wavelengths()) +
		m.PerADM*float64(refADMCount(nw)) +
		m.PerTransit*float64(totalTransit) +
		m.PerLinkChan*channels
}

// defaultCovering builds a covering the way the planner's default
// pipeline does: the paper's constructions for λK_n, greedy otherwise.
func defaultCovering(t *testing.T, n int, demand *graph.Graph) *cover.Covering {
	t.Helper()
	lam, ok := construct.UniformLambda(demand)
	switch {
	case ok && lam == 1:
		res, err := construct.AllToAllCtx(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		return res.Covering
	case ok:
		res, err := construct.LambdaCtx(context.Background(), n, lam)
		if err != nil {
			t.Fatal(err)
		}
		return res.Covering
	}
	cv, err := construct.GreedyCtx(context.Background(), ring.MustNew(n), demand)
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

// checkAgainstReference plans cv over demand and requires every fact and
// the assignment to equal the reference definitions exactly.
func checkAgainstReference(t *testing.T, name string, cv *cover.Covering, demand *graph.Graph) {
	t.Helper()
	nw, err := Plan(cv, demand)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := refAssignment(cv, demand); !maps.Equal(nw.Assignment, want) {
		t.Errorf("%s: assignment differs from the first-covering-cycle scan (%d vs %d pairs)", name, len(nw.Assignment), len(want))
	}
	n := nw.Ring.N()
	for v := -1; v <= n; v++ {
		if got, want := nw.TransitAt(v), refTransitAt(nw, v); got != want {
			t.Errorf("%s: TransitAt(%d) = %d, want %d", name, v, got, want)
		}
	}
	if got, want := nw.MaxTransit(), refMaxTransit(nw); got != want {
		t.Errorf("%s: MaxTransit = %d, want %d", name, got, want)
	}
	if got, want := nw.ADMCount(), refADMCount(nw); got != want {
		t.Errorf("%s: ADMCount = %d, want %d", name, got, want)
	}
	if got, want := nw.Wavelengths(), 2*cv.Size(); got != want {
		t.Errorf("%s: Wavelengths = %d, want %d", name, got, want)
	}
	for _, m := range []CostModel{DefaultCostModel, {PerWavelength: 0.1, PerADM: 0.7, PerTransit: 1.3, PerLinkChan: 0.3}} {
		if got, want := m.Cost(nw), refCost(m, nw); got != want {
			t.Errorf("%s: Cost(%+v) = %v, want %v", name, m, got, want)
		}
	}
}

// TestPlanMatchesReference pins the single-pass Plan and the stored
// optical facts to the reference definitions on every demand family.
func TestPlanMatchesReference(t *testing.T) {
	ns := []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 51, 101}
	for _, n := range ns {
		specs := []string{
			"alltoall", "lambda:2", "lambda:3",
			"hub:0", fmt.Sprintf("hub:%d", n/2), "neighbors",
			fmt.Sprintf("random:0.2:%d", n), fmt.Sprintf("random:0.5:%d", n),
		}
		for _, spec := range specs {
			in, err := instance.Parse(n, spec)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, fmt.Sprintf("n=%d %s", n, spec), defaultCovering(t, n, in.Demand), in.Demand)
		}
	}
}

// TestPlanChildDemandMatchesReference plans a parent's covering against
// smaller child demands derived by deltas. The covering then covers
// pairs the child lacks, which must stay unassigned, and covers others
// more often than the child asks.
func TestPlanChildDemandMatchesReference(t *testing.T) {
	for n := 3; n <= 16; n++ {
		pairs := [][2]int{{0, 1}, {0, n / 2}, {n - 2, n - 1}}
		for _, parentSpec := range []string{"alltoall", "lambda:2", "lambda:3"} {
			parent, err := instance.Parse(n, parentSpec)
			if err != nil {
				t.Fatal(err)
			}
			cv := defaultCovering(t, n, parent.Demand)
			for _, p := range pairs {
				u, v := p[0], p[1]
				// Each chain ends on a demand the parent covering still covers.
				chains := [][]instance.Delta{
					{{Kind: instance.DeltaFail, U: u, V: v}},
					{{Kind: instance.DeltaSet, U: u, V: v, M: 0}},
					{{Kind: instance.DeltaFail, U: u, V: v}, {Kind: instance.DeltaAdd, U: u, V: v}},
					{{Kind: instance.DeltaFail, U: u, V: v}, {Kind: instance.DeltaFail, U: v, V: (v + 1) % n}},
				}
				if parent.Demand.Mult(u, v) > 1 {
					chains = append(chains,
						[]instance.Delta{{Kind: instance.DeltaRemove, U: u, V: v}},
						[]instance.Delta{{Kind: instance.DeltaSet, U: u, V: v, M: 1}},
					)
				}
				for _, chain := range chains {
					child, name := parent, fmt.Sprintf("n=%d %s", n, parentSpec)
					for _, d := range chain {
						if child, err = d.ApplyTo(child); err != nil {
							t.Fatalf("%s + %s: %v", name, d, err)
						}
						name += " + " + d.String()
					}
					checkAgainstReference(t, name, cv, child.Demand)
				}
			}
			// A demand on fewer nodes than the ring: the cycles' pairs
			// through the extra nodes are no demands at all.
			if n > 3 {
				checkAgainstReference(t, fmt.Sprintf("n=%d %s over K_%d", n, parentSpec, n-1), cv, graph.Complete(n-1))
			}
		}
	}
}
