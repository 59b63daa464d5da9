package main

// Self-checks of the benchmark's workloads. The daemon-driven tests build
// cycled from the enclosing checkout and run each workload briefly; they
// are skipped under -short. Run them with:
//
//	cd _perfbench && go test ./...

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
)

func TestSequenceIsDeterministic(t *testing.T) {
	for _, w := range Workloads {
		a, err := Generate(w, 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(w, 42, 2)
		c, _ := Generate(w, 43, 2)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		jc, _ := json.Marshal(c)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: seed 42 generated two different sequences", w)
		}
		if bytes.Equal(ja, jc) {
			t.Errorf("%s: seeds 42 and 43 generated the same sequence", w)
		}
		// The rendered wire requests are byte-identical too.
		wa, err := renderAll(a.Timed)
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := renderAll(b.Timed)
		if !reflect.DeepEqual(wa, wb) {
			t.Errorf("%s: seed 42 rendered two different request streams", w)
		}
	}
}

// TestWarmMixIsTheSameForEverySeed checks that warm sends the same
// multiset of requests whatever the seed: the same counts of each kind
// and item, the same batch sizes and batch lines. Only the order, the
// grouping into batches and the random demands' seeds may differ.
func TestWarmMixIsTheSameForEverySeed(t *testing.T) {
	mix := func(seed int64) map[string]int {
		seq, err := Generate("warm", seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		shape := func(it Item) string {
			spec := it.Spec
			if i := strings.LastIndexByte(spec, ':'); strings.HasPrefix(spec, "random:") && i >= 0 {
				spec = spec[:i]
			}
			return fmt.Sprintf("%d/%s", it.N, spec)
		}
		out := map[string]int{}
		for _, phase := range [][]Unit{seq.Warmup, seq.Timed} {
			for _, r := range flatten(phase) {
				if r.Kind != KindBatch {
					out[string(r.Kind)+" "+shape(r.Item)]++
					continue
				}
				out[fmt.Sprintf("batch of %d", len(r.Items))]++
				for _, it := range r.Items {
					out["batch line "+shape(it)]++
				}
			}
		}
		return out
	}
	want := mix(1)
	for seed := int64(2); seed <= 4; seed++ {
		if got := mix(seed); !maps.Equal(got, want) {
			t.Errorf("seed %d sends another warm mix than seed 1", seed)
		}
	}
}

// TestColdPhasesAreDisjoint checks that nothing the timed phase plans was
// planned during warm-up: no signature at all, so in particular no
// even-n λ-class (memoised beneath the cache for the whole process) and
// no fixed-family general spec.
func TestColdPhasesAreDisjoint(t *testing.T) {
	for _, w := range []string{"cold-ring", "cold-general"} {
		for seed := int64(1); seed <= 3; seed++ {
			seq, err := Generate(w, seed, 10)
			if err != nil {
				t.Fatal(err)
			}
			warm := planned(t, seq.Warmup)
			timed := planned(t, seq.Timed)
			for sig, it := range timed {
				if _, ok := warm[sig]; ok {
					t.Errorf("%s seed %d: %v planned in warm-up and timed phase", w, seed, it)
				}
			}
			for _, phase := range [][]Unit{seq.Warmup, seq.Timed} {
				for _, r := range flatten(phase) {
					in, err := instanceOf(r.Item, r.Deltas)
					if err != nil {
						t.Fatal(err)
					}
					if lam, ok := construct.UniformLambda(in.Demand); ok && !in.IsGeneral() && in.N()%2 == 0 {
						t.Errorf("%s seed %d: even-n λ-class %dK_%d", w, seed, lam, in.N())
					}
				}
			}
		}
	}
}

// planned maps the signature of every instance a phase plans (openers,
// delta children, general hosts) to its item, failing on repeats:
// dual copies aside, every plan of a cold phase is new.
func planned(t *testing.T, units []Unit) map[string]Item {
	t.Helper()
	out := map[string]Item{}
	for _, r := range flatten(units) {
		if r.Kind != KindPlan && r.Kind != KindDelta {
			continue
		}
		if prev, ok := out[r.Sig]; ok {
			t.Errorf("%v and %v share signature %s", prev, r.Item, r.Sig)
		}
		out[r.Sig] = r.Item
	}
	return out
}

func TestClosedLoopSendsEachRequestOnce(t *testing.T) {
	units := []Unit{{{Kind: KindPlan}, {Kind: KindDelta}}, {{Kind: KindPlan, Dual: true}, {Kind: KindDelta}}, {{Kind: KindPlan}}}
	var sent, dups [5]atomic.Int32
	closedLoop(units, func(conn, id int, dup bool) {
		if dup {
			dups[id].Add(1)
		} else {
			sent[id].Add(1)
		}
	})
	for id := range sent {
		if sent[id].Load() != 1 {
			t.Errorf("request %d sent %d times", id, sent[id].Load())
		}
		want := int32(0)
		if id == 2 {
			want = 1
		}
		if dups[id].Load() != want {
			t.Errorf("request %d duplicated %d times, want %d", id, dups[id].Load(), want)
		}
	}
}

// ---- daemon-driven checks ----

var (
	buildOnce sync.Once
	buildDir  string
	cycledBin string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

func cycledBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "perfbench-test")
		if buildErr != nil {
			return
		}
		cycledBin = filepath.Join(buildDir, "cycled")
		cmd := exec.Command("go", "build", "-o", cycledBin, "./cmd/cycled")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("%s", out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return cycledBin
}

type shortRun struct {
	seq *Sequence
	dr  *daemonResult
	tr  *traced
}

var (
	runsMu sync.Mutex
	runs   = map[string]*shortRun{}
)

// shortTracedRun runs a workload for one second's worth of requests, with
// one set-up and the traced replay, once per test binary.
func shortTracedRun(t *testing.T, workload string) *shortRun {
	t.Helper()
	bin := cycledBinary(t)
	runsMu.Lock()
	defer runsMu.Unlock()
	if r, ok := runs[workload]; ok {
		return r
	}
	r, err := runOnce(bin, workload, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	runs[workload] = r
	return r
}

func runOnce(bin, workload string, seed int64, trace bool) (*shortRun, error) {
	cfg := config{workload: workload, seed: seed, seconds: 1, root: "..", cycled: bin, setups: 1}
	seq, err := Generate(workload, seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	var snapshot []byte
	if len(seq.Snapshot) > 0 {
		if snapshot, err = prepareSnapshot(seq.Snapshot); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp("", "perfbench-run")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dr, err := runDaemon(cfg, seq, snapshot, dir)
	if err != nil {
		return nil, err
	}
	r := &shortRun{seq: seq, dr: dr}
	if trace {
		r.tr, err = replay(cfg, seq, snapshot, dr)
	}
	return r, err
}

func TestWorkloadsAnswerCorrectly(t *testing.T) {
	for _, w := range Workloads {
		r := shortTracedRun(t, w)
		if r.dr.out.failed != 0 {
			t.Errorf("%s: %d of %d requests failed: %v", w, r.dr.out.failed, r.dr.out.attempted, r.dr.out.failures)
		}
	}
}

// TestWarmTimesOnlyHits checks that the warm timed phase constructs
// nothing: every plan answer is a cache hit and nothing is evicted.
func TestWarmTimesOnlyHits(t *testing.T) {
	r := shortTracedRun(t, "warm")
	reqs := r.seq.Requests()
	for _, rec := range r.dr.recs {
		if reqs[rec.id].Kind == KindPlan && rec.hit != 1 {
			t.Errorf("warm plan %v answered without X-Cache: HIT", reqs[rec.id].Item)
		}
	}
	for _, name := range []string{"cycled_cache_misses_total", "cycled_cache_evictions_total"} {
		if d := r.dr.delta(name); d != 0 {
			t.Errorf("warm timed phase: %s grew by %v", name, d)
		}
	}
	if d := r.dr.delta("cycled_cache_hits_total"); d == 0 {
		t.Error("warm timed phase: no cache hits counted")
	}
}

// TestColdOpenersMiss checks that every cold-ring opener and every
// cold-general host is planned from scratch. A dual opener's two copies
// may meet in the pool or the cache, so one of them may hit.
func TestColdOpenersMiss(t *testing.T) {
	for _, w := range []string{"cold-ring", "cold-general"} {
		r := shortTracedRun(t, w)
		reqs := r.seq.Requests()
		misses := 0
		for _, rec := range r.dr.recs {
			q := reqs[rec.id]
			if q.Kind != KindPlan || rec.dup || q.Dual {
				continue
			}
			if rec.hit != 0 {
				t.Errorf("%s: opener %v answered without X-Cache: MISS", w, q.Item)
			}
			misses++
		}
		if misses == 0 {
			t.Errorf("%s: no openers checked", w)
		}
	}
}

// TestCoverExcessRepeats checks that two runs of one seed measure
// bit-identical plan quality.
func TestCoverExcessRepeats(t *testing.T) {
	for _, w := range Workloads {
		bin := cycledBinary(t)
		a, err := runOnce(bin, w, 9, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOnce(bin, w, 9, false)
		if err != nil {
			t.Fatal(err)
		}
		ea, eb := a.dr.out.coverExcess(), b.dr.out.coverExcess()
		if ea != eb || a.dr.out.excess != b.dr.out.excess || a.dr.out.lb != b.dr.out.lb || ea == 0 {
			t.Errorf("%s seed 9: cover_excess %v (%d/%d) then %v (%d/%d)", w, ea, a.dr.out.excess, a.dr.out.lb, eb, b.dr.out.excess, b.dr.out.lb)
		}
	}
}

// TestTraceSummary checks the traced replay: every per-layer metric is
// reported, each layer a workload exercises recorded calls, self times
// add up to the traced request time, and the overhead is known.
func TestTraceSummary(t *testing.T) {
	cycledBinary(t)
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		r := shortTracedRun(t, w)
		m, problems := r.tr.metrics(w, r.dr)
		for _, p := range problems {
			t.Errorf("%s: %s", w, p)
		}
		if r.tr.failed != 0 {
			t.Errorf("%s: %d replayed requests failed", w, r.tr.failed)
		}
		for _, l := range bench.PerLayer {
			got, ok := m[l.Name]
			if !ok || got.Unit != l.Unit {
				t.Errorf("%s: per-layer metric %s (%s) reported as %+v", w, l.Name, l.Unit, got)
			}
		}
		if len(m) != len(bench.PerLayer) {
			t.Errorf("%s: %d per-layer metrics reported, BENCHMARK.json lists %d", w, len(m), len(bench.PerLayer))
		}
		s := r.tr.sum
		if s.selfTotal() != s.rootTotal || s.requests != r.tr.attempted {
			t.Errorf("%s: Σ self %d ns over %d requests, traced request time %d ns over %d", w, s.selfTotal(), s.requests, s.rootTotal, r.tr.attempted)
		}
	}
}
