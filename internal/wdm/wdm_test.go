package wdm

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/routing"
)

func planned(t *testing.T, n int) *Network {
	t.Helper()
	res, err := construct.AllToAllCtx(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Plan(res.Covering, graph.Complete(n))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestPlanAllToAll(t *testing.T) {
	for _, n := range []int{4, 5, 7, 9, 10} {
		nw := planned(t, n)
		if len(nw.Subnets) != cover.Rho(n) {
			t.Errorf("n=%d: %d subnetworks, want ρ = %d", n, len(nw.Subnets), cover.Rho(n))
		}
		if nw.Wavelengths() != 2*len(nw.Subnets) {
			t.Errorf("n=%d: %d wavelengths, want 2 per subnetwork", n, nw.Wavelengths())
		}
		// Every demand assigned, every assignment covers the pair.
		for _, e := range nw.Demand.Edges() {
			s, ok := nw.SubnetworkFor(e.U, e.V)
			if !ok {
				t.Fatalf("n=%d: demand %v unassigned", n, e)
			}
			if !s.Cycle.CoversPair(e.U, e.V) {
				t.Fatalf("n=%d: demand %v assigned to non-covering cycle %v", n, e, s.Cycle)
			}
		}
	}
}

func TestPlanRejectsIncompleteCovering(t *testing.T) {
	r := ring.MustNew(5)
	cv := cover.NewCovering(r)
	cv.Add(cover.MustCycle(r, 0, 1, 2))
	if _, err := Plan(cv, graph.Complete(5)); err == nil {
		t.Fatal("incomplete covering: want error")
	}
}

func TestWavelengthsDistinct(t *testing.T) {
	nw := planned(t, 7)
	seen := map[Wavelength]bool{}
	for _, s := range nw.Subnets {
		if seen[s.Working] || seen[s.Spare] {
			t.Fatalf("wavelength reuse in subnetwork %d", s.Index)
		}
		seen[s.Working] = true
		seen[s.Spare] = true
		if s.Working == s.Spare {
			t.Fatalf("working and spare must differ in subnetwork %d", s.Index)
		}
	}
}

func TestSubnetworkRoutesTileRing(t *testing.T) {
	nw := planned(t, 9)
	for _, s := range nw.Subnets {
		if !routing.Disjoint(nw.Ring, s.Routes) {
			t.Fatalf("subnetwork %d routes overlap", s.Index)
		}
		total := 0
		for _, rt := range s.Routes {
			total += rt.Arc.Len(nw.Ring)
		}
		if total != nw.Ring.N() {
			t.Fatalf("subnetwork %d routes cover %d links, want %d", s.Index, total, nw.Ring.N())
		}
	}
}

func TestADMCountEqualsTotalVertices(t *testing.T) {
	res, _ := construct.AllToAllCtx(context.Background(), 7)
	nw, err := Plan(res.Covering, graph.Complete(7))
	if err != nil {
		t.Fatal(err)
	}
	if nw.ADMCount() != res.Covering.TotalVertices() {
		t.Errorf("ADMs = %d, covering total vertices = %d",
			nw.ADMCount(), res.Covering.TotalVertices())
	}
}

func TestTransitAccounting(t *testing.T) {
	nw := planned(t, 5)
	// For each node: transit + 2·(cycles containing it) = 2·subnets.
	for v := 0; v < 5; v++ {
		onCycle := 0
		for _, s := range nw.Subnets {
			if s.Cycle.Contains(v) {
				onCycle++
			}
		}
		if nw.TransitAt(v)+2*onCycle != nw.Wavelengths() {
			t.Errorf("node %d: transit %d + 2·%d ≠ %d",
				v, nw.TransitAt(v), onCycle, nw.Wavelengths())
		}
	}
	if nw.MaxTransit() > nw.Wavelengths() {
		t.Error("transit cannot exceed channel count")
	}
}

func TestWorkingArcServesRequest(t *testing.T) {
	nw := planned(t, 8)
	for _, e := range nw.Demand.Edges() {
		arc, ok := nw.WorkingArc(e.U, e.V)
		if !ok {
			t.Fatalf("no working arc for %v", e)
		}
		// The arc must connect the request's endpoints.
		if !((arc.From == e.U && arc.To == e.V) || (arc.From == e.V && arc.To == e.U)) {
			t.Fatalf("arc %v does not join %v", arc, e)
		}
		if arc.IsEmpty() {
			t.Fatalf("empty working arc for %v", e)
		}
	}
}

func TestCostModel(t *testing.T) {
	nw5 := planned(t, 5)
	nw9 := planned(t, 9)
	c5 := DefaultCostModel.Cost(nw5)
	c9 := DefaultCostModel.Cost(nw9)
	if c5 <= 0 || c9 <= 0 {
		t.Fatal("costs must be positive")
	}
	if c9 <= c5 {
		t.Errorf("bigger network must cost more: n=5 → %.1f, n=9 → %.1f", c5, c9)
	}
	// Zero model costs zero.
	if (CostModel{}).Cost(nw5) != 0 {
		t.Error("zero model must cost 0")
	}
}

func TestPlanPartialDemand(t *testing.T) {
	// A hub demand planned over a greedy covering.
	r := ring.MustNew(8)
	demand := graph.New(8)
	for v := 1; v < 8; v++ {
		demand.AddEdge(0, v)
	}
	cv, err := construct.GreedyCtx(context.Background(), r, demand)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Plan(cv, demand)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Subnets) != cv.Size() {
		t.Error("one subnetwork per cycle")
	}
}
