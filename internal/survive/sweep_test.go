package survive

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// network plans a WDM design for an arbitrary demand spec.
func network(t *testing.T, n int, spec string) *wdm.Network {
	t.Helper()
	in, err := instance.Parse(n, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := ring.MustNew(n)
	var cv *construct.Result
	if lam, ok := construct.UniformLambda(in.Demand); ok && lam == 1 {
		res, err := construct.AllToAllCtx(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		cv = &res
	} else if ok {
		res, err := construct.LambdaCtx(context.Background(), n, lam)
		if err != nil {
			t.Fatal(err)
		}
		cv = &res
	} else {
		g, err := construct.GreedyCtx(context.Background(), r, in.Demand)
		if err != nil {
			t.Fatal(err)
		}
		cv = &construct.Result{Covering: g}
	}
	nw, err := wdm.Plan(cv.Covering, in.Demand)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestParallelSweepMatchesSerial is the determinism acceptance gate: for
// every demand family and every ring size the service accepts down at
// the small end, the parallel sweep's aggregate report must be
// bit-identical to the serial sweep's — for k = 1 (exhaustive), k = 2
// (exhaustive) and sampled k = 3.
func TestParallelSweepMatchesSerial(t *testing.T) {
	specs := func(n int) []string {
		return []string{
			"alltoall",
			"lambda:2",
			"lambda:3",
			"hub:0",
			fmt.Sprintf("hub:%d", n-1),
			"neighbors",
			"random:0.3:5",
			"random:0.8:11",
			"random:0:1",
			"random:1:2",
		}
	}
	for n := 3; n <= 16; n++ {
		for _, spec := range specs(n) {
			t.Run(fmt.Sprintf("n=%d/%s", n, spec), func(t *testing.T) {
				sim := NewSimulator(network(t, n, spec))
				for _, opts := range []SweepOptions{
					{K: 1},
					{K: 2, KeepWorst: 3},
					{K: 3, Sample: 10, Seed: 42, KeepWorst: 2},
				} {
					if opts.K > n {
						continue
					}
					serial, parallel := opts, opts
					serial.Workers = 1
					parallel.Workers = 4
					want, err := sim.SweepCtx(context.Background(), serial)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sim.SweepCtx(context.Background(), parallel)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("k=%d: parallel sweep diverges from serial:\nserial:   %+v\nparallel: %+v",
							opts.K, want, got)
					}
				}
			})
		}
	}
}

// TestSweepSingleMatchesFail cross-checks the sweep's lean evaluation
// path against the reference Fail reports, link by link.
func TestSweepSingleMatchesFail(t *testing.T) {
	sim := NewSimulator(network(t, 11, "alltoall"))
	sweep, err := sim.SweepCtx(context.Background(), SweepOptions{K: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	affected, working, spare, maxSpare := 0, 0, 0, 0
	for l := 0; l < 11; l++ {
		rep, err := sim.Fail(ring.Link(l))
		if err != nil {
			t.Fatal(err)
		}
		affected += len(rep.Affected)
		for _, rr := range rep.Affected {
			working += rr.WorkingLen
			spare += rr.SpareLen
			if rr.SpareLen > maxSpare {
				maxSpare = rr.SpareLen
			}
		}
	}
	if sweep.TotalAffected != affected || sweep.SumWorkingLen != working ||
		sweep.SumSpareLen != spare || sweep.MaxSpareLen != maxSpare {
		t.Fatalf("sweep %+v disagrees with Fail totals (affected %d, working %d, spare %d, max %d)",
			sweep, affected, working, spare, maxSpare)
	}
}

// TestSamplerDeterminism pins the k ≥ 3 contract: the sampled scenario
// set is a pure function of the seed (and differs across seeds on any
// space large enough to make a collision implausible).
func TestSamplerDeterminism(t *testing.T) {
	a := sampleScenarios(16, 3, 20, 7, binomial(16, 3))
	b := sampleScenarios(16, 3, 20, 7, binomial(16, 3))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different scenario sets:\n%v\n%v", a, b)
	}
	c := sampleScenarios(16, 3, 20, 8, binomial(16, 3))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the identical 20-scenario sample of C(16,3)")
	}
	for _, ss := range [][][]ring.Link{a, c} {
		seen := map[string]bool{}
		for _, s := range ss {
			if len(s) != 3 {
				t.Fatalf("scenario %v is not a 3-subset", s)
			}
			if s[0] >= s[1] || s[1] >= s[2] {
				t.Fatalf("scenario %v not sorted", s)
			}
			key := fmt.Sprint(s)
			if seen[key] {
				t.Fatalf("duplicate scenario %v", s)
			}
			seen[key] = true
		}
	}
	// The dense regime (sample > space/2) goes through the
	// shuffle-and-truncate path; it must be deterministic too.
	d := sampleScenarios(7, 3, 30, 3, binomial(7, 3))
	e := sampleScenarios(7, 3, 30, 3, binomial(7, 3))
	if len(d) != 30 || !reflect.DeepEqual(d, e) {
		t.Fatalf("dense sampling not deterministic: %d scenarios", len(d))
	}
}

// TestSweepSampledVsExhaustive pins when sampling kicks in: a k = 3
// space within Sample is enumerated and Complete; a larger one is
// sampled, reports Complete = false, and reproduces per seed.
func TestSweepSampledVsExhaustive(t *testing.T) {
	sim := NewSimulator(network(t, 9, "alltoall")) // C(9,3) = 84
	full, err := sim.SweepCtx(context.Background(), SweepOptions{K: 3, Sample: 84})
	if err != nil {
		t.Fatal(err)
	}
	if full.Sampled || !full.Complete || full.Planned != 84 {
		t.Fatalf("fitting space must enumerate: %+v", full)
	}
	s1, err := sim.SweepCtx(context.Background(), SweepOptions{K: 3, Sample: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Sampled || s1.Complete || s1.Planned != 20 || s1.Scenarios != 84 {
		t.Fatalf("oversized space must sample: %+v", s1)
	}
	s2, err := sim.SweepCtx(context.Background(), SweepOptions{K: 3, Sample: 20, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed must reproduce the sampled sweep:\n%+v\n%+v", s1, s2)
	}
}

// TestSweepBudgetTruncates: the MaxScenarios budget cuts the
// deterministic scenario sequence up front, so a bounded sweep is
// reproducible and honestly reports Complete = false.
func TestSweepBudgetTruncates(t *testing.T) {
	sim := NewSimulator(network(t, 10, "alltoall"))
	a, err := sim.SweepCtx(context.Background(), SweepOptions{K: 2, MaxScenarios: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Planned != 7 || a.Evaluated != 7 || a.Complete || a.Scenarios != 45 {
		t.Fatalf("budget must truncate to 7 of 45: %+v", a)
	}
	b, err := sim.SweepCtx(context.Background(), SweepOptions{K: 2, MaxScenarios: 7, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("budget-cut sweep must not depend on workers:\n%+v\n%+v", a, b)
	}
}

// TestSweepValidatesK: a k outside [1, links] is an input error, not a
// crash or a silent empty sweep.
func TestSweepValidatesK(t *testing.T) {
	sim := NewSimulator(network(t, 6, "alltoall"))
	for _, k := range []int{-1, 7} {
		if _, err := sim.SweepCtx(context.Background(), SweepOptions{K: k}); err == nil {
			t.Errorf("k=%d: want error", k)
		}
	}
	// k = n (all links down) is legal: everything is lost.
	all, err := sim.SweepCtx(context.Background(), SweepOptions{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if all.WorstRestoration != 0 || all.TotalLost == 0 {
		t.Fatalf("failing every link must lose everything: %+v", all)
	}
}

// TestSweepCancellation cancels a large sweep mid-flight: the call must
// return promptly with the context error and a partial, internally
// consistent aggregate, and must not leak its workers.
func TestSweepCancellation(t *testing.T) {
	sim := NewSimulator(network(t, 16, "lambda:3"))
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan struct{})
	var res SweepResult
	var err error
	go func() {
		defer close(done)
		close(started)
		// C(16,2)=120 scenarios rerun many times to give cancel a window.
		for i := 0; i < 10000; i++ {
			res, err = sim.SweepCtx(ctx, SweepOptions{K: 2, Workers: 4})
			if err != nil {
				return
			}
		}
	}()
	<-started
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled sweep did not return")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Complete {
		t.Fatal("a cancelled sweep must not claim completeness")
	}
	if res.Evaluated > res.Planned {
		t.Fatalf("evaluated %d > planned %d", res.Evaluated, res.Planned)
	}
	// The partial aggregate must still be internally consistent.
	if res.LossyScenarios > res.Evaluated {
		t.Fatalf("lossy %d > evaluated %d", res.LossyScenarios, res.Evaluated)
	}
	// No leaked workers: the goroutine count settles back.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestSweepPreCancelled: a context that is already dead yields an empty
// partial result and the context error — no evaluation happens.
func TestSweepPreCancelled(t *testing.T) {
	sim := NewSimulator(network(t, 8, "alltoall"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sim.SweepCtx(ctx, SweepOptions{K: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if res.Evaluated != 0 || res.Complete {
		t.Fatalf("pre-cancelled sweep evaluated %d scenarios", res.Evaluated)
	}
}

// TestSweepRejectsUnroutedDemand: a network whose assignment is missing
// a demand (a malformed, hand-built design) must fail the sweep with an
// error — the Fail contract — never report it unaffected.
func TestSweepRejectsUnroutedDemand(t *testing.T) {
	nw := network(t, 6, "alltoall")
	broken := *nw
	broken.Assignment = map[graph.Edge]int{} // drop every route
	if _, err := NewSimulator(&broken).SweepCtx(context.Background(), SweepOptions{K: 1}); err == nil {
		t.Fatal("sweeping an unrouted demand: want error")
	}
}

// TestSweepEmptyDemand: sweeping a network with no demands is a no-op
// with rate 1, never a division by zero.
func TestSweepEmptyDemand(t *testing.T) {
	sim := NewSimulator(network(t, 6, "random:0:1"))
	res, err := sim.SweepCtx(context.Background(), SweepOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllRestored || res.MeanRestoration != 1 || res.WorstRestoration != 1 {
		t.Fatalf("empty demand: %+v", res)
	}
}

// TestBinomial pins the scenario-space arithmetic, including the
// saturation guard.
func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{5, 1, 5}, {5, 2, 10}, {9, 3, 84}, {16, 2, 120},
		{10, 0, 1}, {10, 10, 1}, {10, 11, 0}, {3, -1, 0},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	if got := binomial(1024, 512); got != int64(1)<<62 {
		t.Errorf("huge binomial must saturate, got %d", got)
	}
}
