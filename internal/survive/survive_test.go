package survive

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

func simulator(t *testing.T, n int) *Simulator {
	t.Helper()
	res, err := construct.AllToAllCtx(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := wdm.Plan(res.Covering, graph.Complete(n))
	if err != nil {
		t.Fatal(err)
	}
	return NewSimulator(nw)
}

// TestEverySingleFailureRestored is the survivability property the whole
// design exists for: any single link failure leaves every demand served.
func TestEverySingleFailureRestored(t *testing.T) {
	for _, n := range []int{4, 5, 6, 7, 9, 11, 14} {
		sim := simulator(t, n)
		sweep, err := sim.SweepCtx(context.Background(), SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sweep.AllRestored {
			t.Fatalf("n=%d: %d demands lost under single failure", n, sweep.TotalLost)
		}
		if sweep.TotalAffected == 0 {
			t.Fatalf("n=%d: some failures must affect some demands", n)
		}
		if !sweep.Complete || sweep.Sampled {
			t.Fatalf("n=%d: single-failure sweep must be exhaustive: %+v", n, sweep)
		}
	}
}

func TestFailReportBookkeeping(t *testing.T) {
	sim := simulator(t, 7)
	rep, err := sim.Fail(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Restored() {
		t.Fatal("single failure must be fully restored")
	}
	total := rep.Unaffected + len(rep.Affected)
	if total != 21 {
		t.Fatalf("accounted %d demands, want 21", total)
	}
	if rep.RestorationRate() != 1.0 {
		t.Fatalf("restoration rate %f, want 1", rep.RestorationRate())
	}
	// Working + spare lengths always sum to n for ring protection.
	for _, rr := range rep.Affected {
		if rr.WorkingLen+rr.SpareLen != 7 {
			t.Errorf("reroute %v: %d+%d != 7", rr.Request, rr.WorkingLen, rr.SpareLen)
		}
		if rr.WorkingLen < 1 || rr.SpareLen < 1 {
			t.Errorf("degenerate reroute %v", rr)
		}
	}
}

func TestEveryLinkFailureAffectsEverySubnetwork(t *testing.T) {
	// A subnetwork's working arcs tile the ring, so every link failure
	// breaks exactly one working arc per subnetwork — i.e. the number of
	// affected requests per failure equals the number of subnetworks.
	sim := simulator(t, 9)
	for l := 0; l < 9; l++ {
		rep, err := sim.Fail(ring.Link(l))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Affected) != len(sim.nw.Subnets) {
			t.Fatalf("link %d: %d affected, want one per subnetwork (%d)",
				l, len(rep.Affected), len(sim.nw.Subnets))
		}
	}
}

func TestDoubleFailures(t *testing.T) {
	sim := simulator(t, 8)
	sweep, err := sim.SweepCtx(context.Background(), SweepOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	mean, worst := sweep.MeanRestoration, sweep.WorstRestoration
	if worst > mean || mean > 1 {
		t.Fatalf("mean %f, worst %f: inconsistent", mean, worst)
	}
	if worst == 1 {
		t.Fatal("some double failure must lose traffic on a ring")
	}
	if worst <= 0 {
		t.Fatal("protection should still save some demands")
	}
	if sweep.Scenarios != 28 || sweep.Planned != 28 || !sweep.Complete {
		t.Fatalf("C(8,2) sweep bookkeeping wrong: %+v", sweep)
	}
	if sweep.AllRestored || sweep.LossyScenarios == 0 || len(sweep.Critical) == 0 {
		t.Fatalf("double-failure loss must be attributed: %+v", sweep)
	}
	if len(sweep.Worst) != 1 || sweep.Worst[0].Lost == 0 {
		t.Fatalf("worst scenario must be retained: %+v", sweep.Worst)
	}
	// The worst scenario must replay to the same outcome through Fail.
	rep, err := sim.Fail(sweep.Worst[0].Links...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lost) != sweep.Worst[0].Lost || len(rep.Affected) != sweep.Worst[0].Affected {
		t.Fatalf("worst scenario replay disagrees: report %+v, Fail lost %d affected %d",
			sweep.Worst[0], len(rep.Lost), len(rep.Affected))
	}
}

func TestAdjacentDoubleFailureIsolatesNode(t *testing.T) {
	// Failing both links at node v cuts v off: every demand at v dies;
	// demands not involving v survive (their cycle's spare path may pass
	// v's links though). At minimum, all n−1 demands at v must be lost.
	sim := simulator(t, 6)
	rep, err := sim.Fail(ring.Link(5), ring.Link(0)) // isolates vertex 0
	if err != nil {
		t.Fatal(err)
	}
	lostAt0 := 0
	for _, e := range rep.Lost {
		if e.U == 0 || e.V == 0 {
			lostAt0++
		}
	}
	if lostAt0 != 5 {
		t.Fatalf("%d demands at the isolated node lost, want 5", lostAt0)
	}
}

func TestFailValidation(t *testing.T) {
	sim := simulator(t, 5)
	if _, err := sim.Fail(ring.Link(9)); err == nil {
		t.Fatal("out-of-range link: want error")
	}
	rep, err := sim.Fail()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Affected) != 0 || len(rep.Lost) != 0 || rep.Unaffected != 10 {
		t.Fatal("no failures: everything unaffected")
	}
}

func TestSweepMetrics(t *testing.T) {
	sim := simulator(t, 9)
	sweep, err := sim.SweepCtx(context.Background(), SweepOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Scenarios != 9 || sweep.Evaluated != 9 {
		t.Errorf("scenario counts = %d/%d, want 9/9", sweep.Scenarios, sweep.Evaluated)
	}
	if sweep.MaxSpareLen >= 9 || sweep.MaxSpareLen < 1 {
		t.Errorf("MaxSpareLen = %d out of range", sweep.MaxSpareLen)
	}
	if sweep.SumWorkingLen+sweep.SumSpareLen != 9*sweep.TotalAffected {
		t.Error("per-reroute working+spare must sum to n")
	}
	if sweep.MostAffected.Affected < 1 || len(sweep.MostAffected.Links) != 1 {
		t.Errorf("worst link must affect someone: %+v", sweep.MostAffected)
	}
	if sweep.MeanRestoration != 1 || sweep.WorstRestoration != 1 {
		t.Errorf("single failures fully restored: mean %f worst %f",
			sweep.MeanRestoration, sweep.WorstRestoration)
	}
}

func TestPartialDemandSurvivability(t *testing.T) {
	// Greedy-covered hub traffic must also be single-failure survivable.
	r := ring.MustNew(10)
	demand := graph.New(10)
	for v := 1; v < 10; v++ {
		demand.AddEdge(0, v)
	}
	cv, err := construct.GreedyCtx(context.Background(), r, demand)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := wdm.Plan(cv, demand)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := NewSimulator(nw).SweepCtx(context.Background(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sweep.AllRestored {
		t.Fatal("hub demand must survive single failures")
	}
}
