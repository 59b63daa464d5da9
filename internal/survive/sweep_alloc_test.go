package survive

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// TestEvaluateZeroAllocs pins the innermost sweep loop: classifying every
// demand of a scenario (unaffected / restored / lost) is pure integer
// arithmetic over the resolved routes and allocates nothing — for k = 1
// and for multi-failure link sets alike.
func TestEvaluateZeroAllocs(t *testing.T) {
	res, err := construct.AllToAllCtx(context.Background(), 11)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := wdm.Plan(res.Covering, graph.Complete(11))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(nw)
	sc := &sweepScratch{}
	demands, err := sim.demandRoutes(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, links := range [][]ring.Link{{0}, {2, 7}, {1, 4, 9}} {
		links := links
		tally := sim.evaluate(links, demands)
		if tally.unaffected+tally.affected+tally.lost != len(demands) {
			t.Fatalf("tally %+v does not partition %d demands", tally, len(demands))
		}
		if avg := testing.AllocsPerRun(200, func() {
			sim.evaluate(links, demands)
		}); avg != 0 {
			t.Fatalf("evaluate(%v) allocated %.2f/op, want 0", links, avg)
		}
	}
}

// TestDemandRoutesReuse pins the per-sweep fixed cost: resolving the
// demand routes into a warm scratch allocates nothing.
func TestDemandRoutesReuse(t *testing.T) {
	res, err := construct.AllToAllCtx(context.Background(), 9)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := wdm.Plan(res.Covering, graph.Complete(9))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(nw)
	sc := &sweepScratch{}
	if _, err := sim.demandRoutes(sc); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := sim.demandRoutes(sc); err != nil {
			t.Error(err)
		}
	}); avg != 0 {
		t.Fatalf("warm demandRoutes allocated %.2f/op, want 0", avg)
	}
}
