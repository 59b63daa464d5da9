//go:build faultinject

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cyclecover/cyclecover/internal/faultinject"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// arm configures a failpoint spec for one test and disarms it after.
func arm(t *testing.T, spec string, seed int64) {
	t.Helper()
	if err := faultinject.Configure(spec, seed); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
}

// TestChaosShedUnderInjectedLatency drives the admission acceptance
// case: with every pool dispatch slowed by an injected delay, a burst
// of 4× pool capacity sheds the excess with structured 429s while the
// admitted requests still answer 200 — the daemon never collapses into
// queueing without bound.
func TestChaosShedUnderInjectedLatency(t *testing.T) {
	arm(t, "pool.dispatch=delay(150ms)", 1)
	s := New(Config{CacheSize: 64, Workers: 2, Queue: 8, MaxInflight: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// 4× the admitted capacity, all distinct instances so no two share
	// a construction.
	const burst = 8
	codes := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/plan?n=%d", ts.URL, 5+i))
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 lacks Retry-After")
				}
				var shed struct {
					Error string `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil || shed.Error == "" {
					t.Errorf("429 body is not the structured shed shape: %v", err)
				}
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(codes)
	counts := map[int]int{}
	for c := range codes {
		counts[c]++
	}
	if counts[http.StatusOK] == 0 || counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("burst of %d answered %v, want both 200s and 429s", burst, counts)
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != burst {
		t.Fatalf("burst leaked unexpected statuses: %v", counts)
	}
	if faultinject.Fired(faultinject.SitePoolDispatch) == 0 {
		t.Fatal("the dispatch delay failpoint never fired")
	}
}

// TestChaosInjectedPanicFailsOneRequest drives the containment
// acceptance case: a panic injected into the first strategy invocation
// fails exactly that request with a fingerprinted 500; concurrent
// default-pipeline traffic and a retry of the same request both answer
// 200, and exactly one recovered panic is counted.
func TestChaosInjectedPanicFailsOneRequest(t *testing.T) {
	arm(t, "strategy.solve=panic(chaos)#1", 7)
	s := New(Config{CacheSize: 64, Workers: 2, Queue: 8})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	resp, body := get(t, ts.URL+"/plan?n=9&strategy=greedy")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic-injected request = %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panic recovered") || !strings.Contains(string(body), "chaos") {
		t.Fatalf("500 body %s does not name the injected panic", body)
	}

	// Only the owning request failed: the default requests pass the same
	// failpoint, but the #1 limit is spent, so they and the retry succeed.
	for _, q := range []string{"/plan?n=11", "/plan?n=13", "/plan?n=9&strategy=greedy"} {
		if resp, body := get(t, ts.URL+q); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s after injected panic = %d (%s), want 200", q, resp.StatusCode, body)
		}
	}

	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "cycled_panics_recovered_total 1") {
		t.Fatalf("metrics should count exactly one recovered panic:\n%s", metrics)
	}
	if got := faultinject.Fired(faultinject.SiteStrategySolve); got != 1 {
		t.Fatalf("panic failpoint fired %d times, want 1 (#1 limit)", got)
	}
}

// TestChaosDefaultPipelinePanicFailsOneRequest: the default strategy
// runs inside the same panic boundary as a named one, so a panic
// injected into a default /plan fails that request with a 500 naming
// strategy:auto, and the retry and a general host still answer 200.
func TestChaosDefaultPipelinePanicFailsOneRequest(t *testing.T) {
	arm(t, "strategy.solve=panic(chaos)#1", 7)
	s := New(Config{CacheSize: 64, Workers: 2, Queue: 8})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	resp, body := get(t, ts.URL+"/plan?n=9")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic-injected default request = %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "strategy:auto") || !strings.Contains(string(body), "chaos") {
		t.Fatalf("500 body %s does not name strategy:auto and the injected panic", body)
	}
	for _, q := range []string{"/plan?n=9", "/plan?n=10&demand=petersen"} {
		if resp, body := get(t, ts.URL+q); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s after injected panic = %d (%s), want 200", q, resp.StatusCode, body)
		}
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "cycled_panics_recovered_total 1") {
		t.Fatalf("metrics should count exactly one recovered panic:\n%s", metrics)
	}
}

// TestChaosDegradeNotTimeout drives the degradation acceptance case: a
// request whose budget the measured full-pipeline cost cannot fit gets
// a verified degraded cover (degraded:true), not a 504 — even while an
// injected dispatch delay eats into the budget.
func TestChaosDegradeNotTimeout(t *testing.T) {
	arm(t, "pool.dispatch=delay(20ms)", 3)
	s := New(Config{CacheSize: 64, Workers: 2, Queue: 8, PlanTimeout: 2 * time.Second, Degrade: true})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	s.costs.observe(modeFull, instance.AllToAll(9), time.Hour)

	resp, body := get(t, ts.URL+"/plan?n=9")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degradable /plan = %d (%s), want 200 not a timeout", resp.StatusCode, body)
	}
	var plan planResponse
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	if !plan.Degraded || plan.Optimal {
		t.Fatalf("plan = (degraded=%v, optimal=%v), want (true, false)", plan.Degraded, plan.Optimal)
	}
	if plan.Size == 0 || len(plan.Cycles) != plan.Size {
		t.Fatalf("degraded plan is not a real covering: size=%d cycles=%d", plan.Size, len(plan.Cycles))
	}
}

// TestChaosInjectedDispatchErrorRecovers: an err-verb failpoint at pool
// dispatch fails a deterministic fraction of jobs with a 500 carrying
// the injected error; the daemon keeps serving and untouched requests
// succeed.
func TestChaosInjectedDispatchErrorRecovers(t *testing.T) {
	arm(t, "pool.dispatch=err(disk on fire)#1", 11)
	s := New(Config{CacheSize: 64, Workers: 2, Queue: 8})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	resp, body := get(t, ts.URL+"/plan?n=9")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err-injected request = %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "disk on fire") {
		t.Fatalf("500 body %s does not carry the injected error", body)
	}
	if resp, body := get(t, ts.URL+"/plan?n=9"); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after injected error = %d (%s), want 200 (error was not cached)", resp.StatusCode, body)
	}
}
