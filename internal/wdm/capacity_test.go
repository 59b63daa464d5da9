package wdm

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/graph"
)

// TestCapacityPerfectFillOddN: for odd n the optimal covering is a
// partition, so every demand pair is served by its unique cycle and every
// working wavelength is exactly filled on every link — the paper's "half
// of the capacity for the demands" claim made precise.
func TestCapacityPerfectFillOddN(t *testing.T) {
	for _, n := range []int{5, 7, 9, 11, 13} {
		nw := planned(t, n)
		rep, err := nw.Capacity()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.PerfectWorkingFill {
			t.Errorf("n=%d: odd design must exactly fill working channels (mean %f)",
				n, rep.MeanWorkingFill)
		}
		if len(rep.Overfilled) != 0 {
			t.Errorf("n=%d: overfilled cells %v", n, rep.Overfilled)
		}
		if rep.MeanWorkingFill != 1.0 {
			t.Errorf("n=%d: mean fill %f, want 1", n, rep.MeanWorkingFill)
		}
	}
}

// TestCapacityNeverOverfilled: DRC designs can underfill (covering slack)
// but can never put two requests on the same link of the same working
// wavelength.
func TestCapacityNeverOverfilled(t *testing.T) {
	for _, n := range []int{4, 6, 8, 10, 12, 22} {
		nw := planned(t, n)
		rep, err := nw.Capacity()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Overfilled) != 0 {
			t.Fatalf("n=%d: overfilled %v", n, rep.Overfilled)
		}
		if rep.MeanWorkingFill > 1.0 || rep.MeanWorkingFill <= 0 {
			t.Fatalf("n=%d: mean fill %f out of range", n, rep.MeanWorkingFill)
		}
	}
}

// TestCapacityPartialDemand: with partial demand most channels idle but
// the invariant (≤1 request per link per channel) still holds.
func TestCapacityPartialDemand(t *testing.T) {
	res, err := construct.AllToAllCtx(context.Background(), 9)
	if err != nil {
		t.Fatal(err)
	}
	demand := graph.New(9)
	demand.AddEdge(0, 4)
	demand.AddEdge(1, 2)
	nw, err := Plan(res.Covering, demand)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := nw.Capacity()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerfectWorkingFill {
		t.Error("two demands on a 10-subnetwork design cannot perfectly fill")
	}
	if len(rep.Overfilled) != 0 {
		t.Error("overfill impossible")
	}
	if rep.MeanWorkingFill <= 0 || rep.MeanWorkingFill >= 0.5 {
		t.Errorf("mean fill %f implausible for 2 demands", rep.MeanWorkingFill)
	}
}
