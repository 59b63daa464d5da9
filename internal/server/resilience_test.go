package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// gateStrategy is a controllable strategy for admission tests: every
// Solve signals started, then parks until release closes (whereupon it
// delegates to the greedy sweep, producing a real verified covering) or
// the context fires.
type gateStrategy struct {
	name    string
	started chan struct{} // one token per Solve entry; buffer ≥ expected calls
	release chan struct{}
	calls   *atomic.Int64
}

func (g gateStrategy) Name() string { return g.name }

func (g gateStrategy) Solve(ctx context.Context, in instance.Instance, opts construct.Options) (construct.Outcome, error) {
	g.calls.Add(1)
	g.started <- struct{}{}
	select {
	case <-g.release:
		return construct.GreedySweep{}.Solve(ctx, in, opts)
	case <-ctx.Done():
		return construct.Outcome{}, ctx.Err()
	}
}

// testStrategySeq uniquifies test-registered strategy names: the
// construct registry is process-global and registrations cannot be
// undone, so repeated runs of the same test in one process (-count=2)
// each need a fresh name.
var testStrategySeq atomic.Int64

// registerGate registers a uniquely named gate strategy; use the
// returned g.name (not the base name) to select it per request.
func registerGate(t *testing.T, name string) gateStrategy {
	t.Helper()
	g := gateStrategy{
		name:    fmt.Sprintf("%s-%d", name, testStrategySeq.Add(1)),
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
		calls:   &atomic.Int64{},
	}
	if err := construct.RegisterStrategy(g); err != nil {
		t.Fatal(err)
	}
	return g
}

func waitStarted(t *testing.T, g gateStrategy) {
	t.Helper()
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("strategy never entered Solve")
	}
}

// TestShedInflightCap: past the per-endpoint in-flight cap, /plan
// answers a structured 429 with a Retry-After hint instead of queueing,
// and the shed is counted in /metrics.
func TestShedInflightCap(t *testing.T) {
	s := New(Config{CacheSize: 32, Workers: 2, Queue: 16, MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	g := registerGate(t, "shed-inflight-gate")

	first := make(chan int, 1)
	go func() {
		resp, _ := http.Get(ts.URL + "/plan?n=9&strategy=" + g.name)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitStarted(t, g)

	// The endpoint is at its cap: the next request is shed.
	resp, body := get(t, ts.URL+"/plan?n=11")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap /plan status = %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 lacks a Retry-After header")
	}
	var shed struct {
		Error      string `json:"error"`
		RetryAfter string `json:"retryAfter"`
	}
	if err := json.Unmarshal(body, &shed); err != nil || shed.Error == "" || shed.RetryAfter == "" {
		t.Fatalf("429 body %s is not the structured shed shape (%v)", body, err)
	}

	// Other endpoints have their own cap and are not affected.
	if resp, body := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz during /plan saturation = %d (%s)", resp.StatusCode, body)
	}

	close(g.release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("admitted request finished %d, want 200", code)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"cycled_shed_total 1",
		"cycled_shed_path_total{path=\"/plan\"} 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestShedQueueDepth: once the pool's pending queue is MaxQueue deep,
// new work is shed with 429 rather than deepening the backlog.
func TestShedQueueDepth(t *testing.T) {
	s := New(Config{CacheSize: 32, Workers: 1, Queue: 16, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	g := registerGate(t, "shed-queue-gate")

	codes := make(chan int, 2)
	for _, n := range []int{9, 11} {
		go func(n int) {
			resp, _ := http.Get(fmt.Sprintf("%s/plan?n=%d&strategy=%s", ts.URL, n, g.name))
			resp.Body.Close()
			codes <- resp.StatusCode
		}(n)
	}
	// First request occupies the lone worker; the second's job must land
	// in the queue before the shed check is meaningful.
	waitStarted(t, g)
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := get(t, ts.URL+"/plan?n=13")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue /plan status = %d (%s), want 429", resp.StatusCode, body)
	}

	close(g.release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("queued request finished %d, want 200", code)
		}
	}
}

// TestShedQueueDepthBeyondQueueBuffer: MaxQueue holds whatever Queue
// says, because the queue depth counts the submitters waiting in Submit
// (Queue is ignored; the pool has no buffer). With one job running and
// two waiting, the depth is 2 and a fourth request is shed.
func TestShedQueueDepthBeyondQueueBuffer(t *testing.T) {
	s := New(Config{CacheSize: 32, Workers: 1, Queue: 1, MaxQueue: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	g := registerGate(t, "shed-beyond-buffer-gate")
	release := sync.OnceFunc(func() { close(g.release) })
	defer release() // before ts.Close: parked requests must finish

	codes := make(chan int, 3)
	for _, n := range []int{9, 11, 13} {
		go func() {
			resp, err := http.Get(fmt.Sprintf("%s/plan?n=%d&strategy=%s", ts.URL, n, g.name))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	waitStarted(t, g)
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.QueueDepth() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d with one job running, one buffered and one blocked on the full buffer, want 2", s.pool.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	// Were the fourth request admitted, it would park behind the gate:
	// the client timeout turns that into a failure instead of a hang.
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(ts.URL + "/plan?n=15")
	if err != nil {
		t.Fatalf("fourth /plan was admitted past MaxQueue: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fourth /plan status = %d, want 429", resp.StatusCode)
	}

	release()
	for i := 0; i < 3; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("queued request finished %d, want 200", code)
		}
	}
}

// TestPanicContainmentSheltersServing: a panicking strategy fails only
// its own request with a fingerprinted 500; the daemon keeps serving
// and the panic is counted in /metrics.
func TestPanicContainmentSheltersServing(t *testing.T) {
	s := New(Config{CacheSize: 32, Workers: 2, Queue: 16})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	p := panickingStrategy{name: fmt.Sprintf("server-test-boom-%d", testStrategySeq.Add(1))}
	if err := construct.RegisterStrategy(p); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts.URL+"/plan?n=9&strategy="+p.name)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking strategy status = %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panic recovered") {
		t.Fatalf("500 body %s does not name the recovered panic", body)
	}

	// Only the owning request failed: the same server plans normally.
	if resp, body := get(t, ts.URL+"/plan?n=9"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic /plan = %d (%s), want 200", resp.StatusCode, body)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "cycled_panics_recovered_total 1") {
		t.Fatalf("metrics missing the recovered-panic count:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "cycled_panics_recovered_fingerprint_total{fingerprint=") {
		t.Fatalf("metrics missing the per-fingerprint panic counter:\n%s", metrics)
	}
}

type panickingStrategy struct{ name string }

func (p panickingStrategy) Name() string { return p.name }
func (panickingStrategy) Solve(context.Context, instance.Instance, construct.Options) (construct.Outcome, error) {
	panic("injected solver bug")
}

// TestDegradeUnderDeadline: when the measured full-pipeline cost cannot
// fit the remaining budget, the plan is built by the anytime portfolio —
// verified, degraded:true, no optimality claim, cached under the
// degraded signature dimension.
func TestDegradeUnderDeadline(t *testing.T) {
	s := New(Config{CacheSize: 32, Workers: 2, Queue: 16, PlanTimeout: 2 * time.Second, Degrade: true})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// Teach the cost model that full construction at this size blows any
	// plausible deadline (tests poke the model directly; production
	// learns it from real constructions).
	s.costs.observe(modeFull, instance.AllToAll(9), time.Hour)

	resp, body := get(t, ts.URL+"/plan?n=9")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degradable /plan = %d (%s), want 200", resp.StatusCode, body)
	}
	var plan planResponse
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	if !plan.Degraded || plan.Stale {
		t.Fatalf("plan = (degraded=%v, stale=%v), want (true, false)", plan.Degraded, plan.Stale)
	}
	if plan.Optimal {
		t.Fatal("degraded plan claims optimality")
	}
	if !strings.HasSuffix(plan.Signature, ";g=deg") {
		t.Fatalf("degraded plan signature %q lacks the ;g=deg dimension", plan.Signature)
	}
	if got := resp.Header.Get("X-Degraded"); got != "true" {
		t.Fatalf("X-Degraded = %q, want true", got)
	}
	if len(plan.Cycles) != plan.Size || plan.Size == 0 {
		t.Fatalf("degraded plan carries %d cycles for size %d", len(plan.Cycles), plan.Size)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "cycled_degraded_total 1") {
		t.Fatalf("metrics missing the degrade count:\n%s", metrics)
	}
}

// TestDegradeStaleServe: when even the anytime estimate cannot fit the
// budget, a previously cached verified plan is served with
// X-Degraded: stale and no new construction.
func TestDegradeStaleServe(t *testing.T) {
	s := New(Config{CacheSize: 32, Workers: 2, Queue: 16, PlanTimeout: 2 * time.Second, Degrade: true})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// Warm the cache with a full-budget plan (cost model is cold, so no
	// degradation yet), then make both cost modes look hopeless.
	if resp, body := get(t, ts.URL+"/plan?n=9"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming /plan = %d (%s)", resp.StatusCode, body)
	}
	in := instance.AllToAll(9)
	s.costs.observe(modeFull, in, time.Hour)
	s.costs.observe(modeDegraded, in, time.Hour)
	executedBefore := s.pool.Stats().Executed

	resp, body := get(t, ts.URL+"/plan?n=9")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale-servable /plan = %d (%s), want 200", resp.StatusCode, body)
	}
	var plan planResponse
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	if !plan.Stale || !plan.Degraded || !plan.CacheHit {
		t.Fatalf("plan = (stale=%v, degraded=%v, cacheHit=%v), want all true", plan.Stale, plan.Degraded, plan.CacheHit)
	}
	if got := resp.Header.Get("X-Degraded"); got != "stale" {
		t.Fatalf("X-Degraded = %q, want stale", got)
	}
	if ex := s.pool.Stats().Executed; ex != executedBefore {
		t.Fatalf("stale serve executed %d new pool jobs", ex-executedBefore)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "cycled_degraded_stale_total 1") {
		t.Fatalf("metrics missing the stale-serve count:\n%s", metrics)
	}
}

// TestReadyzLifecycle walks /readyz through the states a load balancer
// sees: ready, starting (SetReady false), draining — while /livez and
// its /healthz alias stay 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t)

	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ready": true`) {
		t.Fatalf("/readyz at boot = %d (%s), want 200 ready", resp.StatusCode, body)
	}

	s.SetReady(false)
	if resp, body := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "starting") {
		t.Fatalf("/readyz while starting = %d (%s), want 503 starting", resp.StatusCode, body)
	}
	s.SetReady(true)

	s.StartDrain()
	if resp, body := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("/readyz while draining = %d (%s), want 503 draining", resp.StatusCode, body)
	}

	// Liveness is a different question: the process is up the whole time.
	for _, path := range []string{"/livez", "/healthz"} {
		resp, body := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
			t.Fatalf("%s while draining = %d (%s), want 200 ok", path, resp.StatusCode, body)
		}
	}
}

// TestBatchDisconnectShedsRemainingSlots pins the disconnect bugfix: a
// dropped /plan/batch reader stops spawning constructions — slots not
// yet started fail in place without ever touching the pool.
func TestBatchDisconnectShedsRemainingSlots(t *testing.T) {
	s := New(Config{CacheSize: 32, Workers: 1, Queue: 16})
	defer s.Close()
	g := registerGate(t, "batch-disconnect-gate")

	const items = 12
	var body strings.Builder
	for i := 0; i < items; i++ {
		fmt.Fprintf(&body, "{\"n\": %d, \"strategy\": %q}\n", 5+i, g.name)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/plan/batch", strings.NewReader(body.String())).WithContext(ctx)
	rec := httptest.NewRecorder()
	handlerDone := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(handlerDone)
	}()

	// Let the first slot reach its construction, then drop the client.
	waitStarted(t, g)
	cancel()
	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("batch handler never returned after disconnect")
	}

	if got := g.calls.Load(); got != 1 {
		t.Fatalf("%d constructions started for a disconnected batch, want 1", got)
	}
	// The handler detaches from the in-flight job before the worker
	// finalizes it, so give the executed counter a moment to land — and
	// then make sure it never climbs past the one admitted job.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Stats().Executed < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the one admitted job never executed")
		}
		time.Sleep(time.Millisecond)
	}
	if ex := s.pool.Stats().Executed; ex != 1 {
		t.Fatalf("pool executed %d jobs for a disconnected batch, want 1", ex)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != items {
		t.Fatalf("batch answered %d lines, want %d (every slot reports)", len(lines), items)
	}
	cancelled := 0
	for _, ln := range lines {
		var line batchPlanLine
		if err := json.Unmarshal([]byte(ln), &line); err != nil {
			t.Fatalf("bad batch line %q: %v", ln, err)
		}
		if strings.Contains(line.Error, "batch cancelled") {
			cancelled++
		}
	}
	if cancelled != items-1 {
		t.Fatalf("%d slots failed in place, want %d", cancelled, items-1)
	}
}

// TestRetryAfterTracksLatency: the 429 Retry-After hint follows the
// observed job-latency EWMA, clamped to [1s, 60s].
func TestRetryAfterTracksLatency(t *testing.T) {
	a := newAdmission(1, 0, NewPool(1, 1))
	if got := func() int { a.mu.Lock(); defer a.mu.Unlock(); return a.retryAfterLocked() }(); got != minRetryAfter {
		t.Fatalf("cold Retry-After = %d, want %d", got, minRetryAfter)
	}
	a.observe(3 * time.Second)
	if got := func() int { a.mu.Lock(); defer a.mu.Unlock(); return a.retryAfterLocked() }(); got != 3 {
		t.Fatalf("Retry-After after a 3s job = %d, want 3", got)
	}
	for i := 0; i < 50; i++ {
		a.observe(10 * time.Minute)
	}
	if got := func() int { a.mu.Lock(); defer a.mu.Unlock(); return a.retryAfterLocked() }(); got != maxRetryAfter {
		t.Fatalf("Retry-After under pathological latency = %d, want the %d clamp", got, maxRetryAfter)
	}
}
