package survive

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
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

// TestSweepMatchesFail checks every field of the sweep report against
// an oracle built from Simulator.Fail, which classifies each demand with
// its own failed-link map and Arc.Contains and so shares no evaluation or
// aggregation code with the sweep. The matrix is every demand family at
// every small ring size the service accepts, for k = 1, k = 2 and a
// sampled k = 3; each case's scenario list is rebuilt with the sweep's
// own planners (enumerate, sampleScenarios), then failed one by one.
func TestSweepMatchesFail(t *testing.T) {
	for n := 3; n <= 16; n++ {
		for _, spec := range sweepSpecs(n) {
			t.Run(fmt.Sprintf("n=%d/%s", n, spec), func(t *testing.T) {
				sim := NewSimulator(network(t, n, spec))
				for _, opts := range sweepMatrix(n) {
					got, err := sim.SweepCtx(context.Background(), opts)
					if err != nil {
						t.Fatal(err)
					}
					if want := failOracle(t, sim, n, opts); !reflect.DeepEqual(got, want) {
						t.Fatalf("k=%d: sweep disagrees with the Fail oracle:\nsweep:  %+v\noracle: %+v",
							opts.K, got, want)
					}
				}
			})
		}
	}
}

// sweepSpecs lists the demand families the sweep tests cover on a ring
// of n nodes.
func sweepSpecs(n int) []string {
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

// sweepMatrix lists the sweeps the tests run on a ring of n links:
// k = 1, k = 2 and a sampled k = 3, each only where k ≤ n.
func sweepMatrix(n int) []SweepOptions {
	var opts []SweepOptions
	for _, o := range []SweepOptions{
		{K: 1},
		{K: 2, KeepWorst: 3},
		{K: 3, Sample: 10, Seed: 42, KeepWorst: 2},
	} {
		if o.K <= n {
			opts = append(opts, o)
		}
	}
	return opts
}

// TestParallelSweepMatchesSerial checks that sweeps run concurrently on
// one Simulator report exactly what the same sweeps report run one at a
// time. Every sweep draws its working state (routes, scenario arena,
// per-link tallies) from one scratch pool shared by all simulators, and
// the service runs sweeps on several pool workers at once, so state
// leaking between overlapping sweeps would show here as a diverging
// report, and under -race as a data race. The callers start at different
// rows of the matrix, so sweeps of different k overlap and hand each
// other scratch of different shapes.
func TestParallelSweepMatchesSerial(t *testing.T) {
	const callers = 4
	for n := 3; n <= 16; n++ {
		for _, spec := range sweepSpecs(n) {
			t.Run(fmt.Sprintf("n=%d/%s", n, spec), func(t *testing.T) {
				sim := NewSimulator(network(t, n, spec))
				opts := sweepMatrix(n)
				want := make([]SweepResult, len(opts))
				for i, o := range opts {
					res, err := sim.SweepCtx(context.Background(), o)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = res
				}
				got := make([][]SweepResult, callers)
				errs := make([]error, callers)
				var wg sync.WaitGroup
				for c := range callers {
					got[c] = make([]SweepResult, len(opts))
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := range opts {
							i := (c + j) % len(opts)
							if got[c][i], errs[c] = sim.SweepCtx(context.Background(), opts[i]); errs[c] != nil {
								return
							}
						}
					}()
				}
				wg.Wait()
				for c := range callers {
					if errs[c] != nil {
						t.Fatal(errs[c])
					}
					for i := range opts {
						if !reflect.DeepEqual(want[i], got[c][i]) {
							t.Fatalf("k=%d: concurrent sweep %d diverges from serial:\nserial:     %+v\nconcurrent: %+v",
								opts[i].K, c, want[i], got[c][i])
						}
					}
				}
			})
		}
	}
}

// failOracle computes the report a sweep over a ring of n links should
// give, by running Simulator.Fail on every planned scenario. opts must
// set K and leave MaxScenarios at its default; a zero Sample or
// KeepWorst takes the sweep's default.
func failOracle(t *testing.T, sim *Simulator, n int, opts SweepOptions) SweepResult {
	t.Helper()
	if opts.Sample == 0 {
		opts.Sample = DefaultSample
	}
	if opts.KeepWorst == 0 {
		opts.KeepWorst = 1
	}
	space := binomial(n, opts.K)
	want := SweepResult{K: opts.K, Scenarios: space}
	var scenarios [][]ring.Link
	if opts.K <= 2 || space <= int64(opts.Sample) {
		scenarios = enumerate(n, opts.K, space)
	} else {
		scenarios = sampleScenarios(n, opts.K, opts.Sample, opts.Seed, space)
		want.Sampled, want.Seed = true, opts.Seed
	}
	want.Planned, want.Evaluated = len(scenarios), len(scenarios)
	want.Complete = !want.Sampled

	var reports []ScenarioReport
	var served, demands int
	critScenarios, critLost := make([]int, n), make([]int, n)
	want.WorstRestoration = 1
	for i, links := range scenarios {
		fr, err := sim.Fail(links...)
		if err != nil {
			t.Fatal(err)
		}
		rep := ScenarioReport{
			Index:      i,
			Links:      fr.Failed,
			Unaffected: fr.Unaffected,
			Affected:   len(fr.Affected),
			Lost:       len(fr.Lost),
			Rate:       fr.RestorationRate(),
		}
		for _, rr := range fr.Affected {
			rep.MaxSpareLen = max(rep.MaxSpareLen, rr.SpareLen)
			want.SumSpareLen += rr.SpareLen
			want.SumWorkingLen += rr.WorkingLen
		}
		reports = append(reports, rep)
		demands = rep.Unaffected + rep.Affected + rep.Lost
		served += rep.Unaffected + rep.Affected
		want.TotalAffected += rep.Affected
		want.TotalLost += rep.Lost
		want.MaxSpareLen = max(want.MaxSpareLen, rep.MaxSpareLen)
		want.WorstRestoration = min(want.WorstRestoration, rep.Rate)
		if i == 0 || rep.Affected > want.MostAffected.Affected {
			want.MostAffected = rep
		}
		if rep.Lost > 0 {
			want.LossyScenarios++
			for _, l := range links {
				critScenarios[l]++
				critLost[l] += rep.Lost
			}
		}
	}
	want.AllRestored = want.TotalLost == 0
	want.MeanRestoration = 1
	if demands > 0 {
		want.MeanRestoration = float64(served) / (float64(want.Evaluated) * float64(demands))
	}
	// Worst: the lossiest scenarios, most lost first, ties toward the
	// earlier index (a stable sort keeps scenario order).
	sort.SliceStable(reports, func(i, j int) bool { return reports[i].Lost > reports[j].Lost })
	for _, rep := range reports {
		if rep.Lost == 0 || len(want.Worst) == opts.KeepWorst {
			break
		}
		want.Worst = append(want.Worst, rep)
	}
	for l := range critScenarios {
		if critScenarios[l] > 0 {
			want.Critical = append(want.Critical, LinkCriticality{Link: ring.Link(l), Scenarios: critScenarios[l], LostDemands: critLost[l]})
		}
	}
	return want
}

// TestSweepSingleMatchesFail cross-checks the sweep's lean evaluation
// path against the reference Fail reports, link by link.
func TestSweepSingleMatchesFail(t *testing.T) {
	sim := NewSimulator(network(t, 11, "alltoall"))
	sweep, err := sim.SweepCtx(context.Background(), SweepOptions{K: 1})
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

// TestSamplerMatchesMapSampler pins the sampled draws to the sampler
// they replaced, which kept a map per draw and a string key per scenario
// (copied below): the same generator calls, so the same scenarios, on
// packed draws and on one too wide to pack (8 links of 10 bits).
func TestSamplerMatchesMapSampler(t *testing.T) {
	mapSampler := func(links, k, count int, seed int64) [][]ring.Link {
		rng := rand.New(rand.NewSource(seed))
		seen := map[string]bool{}
		var out [][]ring.Link
		buf := make([]byte, 2*k)
		for len(out) < count {
			chosen := map[int]bool{}
			for j := links - k; j < links; j++ {
				if t := rng.Intn(j + 1); chosen[t] {
					chosen[j] = true
				} else {
					chosen[t] = true
				}
			}
			combo := make([]ring.Link, 0, k)
			//cyclecover:nondet keys are sorted immediately below
			for v := range chosen {
				combo = append(combo, ring.Link(v))
			}
			sort.Slice(combo, func(i, j int) bool { return combo[i] < combo[j] })
			for i, l := range combo {
				buf[2*i] = byte(l)
				buf[2*i+1] = byte(int(l) >> 8)
			}
			if key := string(buf); !seen[key] {
				seen[key] = true
				out = append(out, combo)
			}
		}
		sortScenarios(out)
		return out
	}
	for _, tc := range []struct {
		links, k, count int
		seed            int64
	}{
		{16, 3, 20, 7},
		{16, 3, 200, 8},
		{64, 3, 512, 1},
		{40, 5, 300, -4},
		{1024, 6, 100, 99},
		{600, 8, 60, 5},
	} {
		got := sampleScenarios(tc.links, tc.k, tc.count, tc.seed, binomial(tc.links, tc.k))
		if want := mapSampler(tc.links, tc.k, tc.count, tc.seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: sampled\n%v\nwant\n%v", tc, got, want)
		}
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
	s2, err := sim.SweepCtx(context.Background(), SweepOptions{K: 3, Sample: 20, Seed: 5})
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
	b, err := sim.SweepCtx(context.Background(), SweepOptions{K: 2, MaxScenarios: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("budget-cut sweep must reproduce:\n%+v\n%+v", a, b)
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
// return promptly with the context error and the aggregate of a prefix
// of the scenario sequence — the very report a sweep budget-cut to the
// same number of scenarios gives.
func TestSweepCancellation(t *testing.T) {
	sim := NewSimulator(network(t, 16, "lambda:3"))
	opts := SweepOptions{K: 2, KeepWorst: 3}

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
			res, err = sim.SweepCtx(ctx, opts)
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
	if res.Evaluated >= res.Planned {
		t.Fatalf("evaluated %d of %d planned, want fewer", res.Evaluated, res.Planned)
	}
	if res.Evaluated == 0 {
		// The cancel landed before the sweep's first scenario.
		if res.LossyScenarios != 0 || res.TotalAffected != 0 || res.Worst != nil || res.Critical != nil {
			t.Fatalf("an empty partial sweep reports work: %+v", res)
		}
		return
	}
	budget := opts
	budget.MaxScenarios = int64(res.Evaluated)
	want, err := sim.SweepCtx(context.Background(), budget)
	if err != nil {
		t.Fatal(err)
	}
	// Only Planned tells the two apart: the budget planned the prefix.
	want.Planned = res.Planned
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("cancelled sweep is not the prefix of %d scenarios:\ncancelled: %+v\nbudget:    %+v",
			res.Evaluated, res, want)
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
