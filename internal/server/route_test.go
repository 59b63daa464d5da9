package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveRoute sends one request straight to the server's handler.
func serveRoute(s *Server, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// scrapeMetrics returns /metrics without its uptime line, the one line
// that depends on the clock.
func scrapeMetrics(t *testing.T, s *Server) string {
	t.Helper()
	rec := serveRoute(s, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "cycled_uptime_seconds ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestRouteTableInPathOrder: the route table lists the nine endpoints in
// path order, which is the order /metrics prints its per-path lines in.
func TestRouteTableInPathOrder(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	var paths []string
	for i := range s.routes {
		paths = append(paths, s.routes[i].path)
	}
	want := []string{"/healthz", "/livez", "/metrics", "/plan", "/plan/batch", "/plan/delta", "/readyz", "/simulate", "/verify"}
	if !slices.Equal(paths, want) {
		t.Fatalf("route table %v, want %v", paths, want)
	}
}

// TestRouteMethodNotAllowed: every work route answers a method it does
// not take with 405, its Allow header and the JSON hint naming the
// methods it does take, and the probes and /metrics answer any method.
// Every one of those requests is counted under its own path.
func TestRouteMethodNotAllowed(t *testing.T) {
	s := New(Config{CacheSize: 8, Workers: 1})
	defer s.Close()
	for _, tc := range []struct {
		path, method, allow, body string
	}{
		{"/plan", http.MethodDelete, "GET, POST", "{\n  \"error\": \"use GET or POST\"\n}\n"},
		{"/plan/batch", http.MethodGet, "POST", "{\n  \"error\": \"use POST\"\n}\n"},
		{"/plan/delta", http.MethodGet, "POST", "{\n  \"error\": \"use POST\"\n}\n"},
		{"/simulate", http.MethodPut, "GET, POST", "{\n  \"error\": \"use GET or POST\"\n}\n"},
		{"/verify", http.MethodGet, "POST", "{\n  \"error\": \"use POST\"\n}\n"},
	} {
		rec := serveRoute(s, tc.method, tc.path, "")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, rec.Code)
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, got)
		}
		if got := rec.Body.String(); got != tc.body {
			t.Errorf("%s %s: body %q, want %q", tc.method, tc.path, got, tc.body)
		}
	}
	for _, path := range []string{"/healthz", "/livez", "/readyz", "/metrics"} {
		for _, method := range []string{http.MethodPost, http.MethodDelete} {
			if rec := serveRoute(s, method, path, ""); rec.Code != http.StatusOK {
				t.Errorf("%s %s: status %d, want 200", method, path, rec.Code)
			}
		}
	}
	metrics := scrapeMetrics(t, s)
	for _, want := range []string{
		`cycled_http_requests_total{path="/healthz"} 2`,
		`cycled_http_requests_total{path="/livez"} 2`,
		`cycled_http_requests_total{path="/metrics"} 3`,
		`cycled_http_requests_total{path="/plan"} 1`,
		`cycled_http_requests_total{path="/plan/batch"} 1`,
		`cycled_http_requests_total{path="/plan/delta"} 1`,
		`cycled_http_requests_total{path="/readyz"} 2`,
		`cycled_http_requests_total{path="/simulate"} 1`,
		`cycled_http_requests_total{path="/verify"} 1`,
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if ex := s.pool.Stats().Executed; ex != 0 {
		t.Errorf("405s reached the pool: %d jobs executed", ex)
	}
}

// TestRouteShedsEveryWorkEndpoint: with the lone worker parked and one
// submitter waiting, the queue depth sits at MaxQueue, so a request to
// each work endpoint is shed with the structured 429 naming its own
// path, and counted under that path. The /metrics scrape after the
// history is pinned whole, uptime aside.
func TestRouteShedsEveryWorkEndpoint(t *testing.T) {
	s := New(Config{CacheSize: 8, Workers: 1, MaxQueue: 1})
	defer s.Close()
	g := registerGate(t, "route-shed-gate")
	release := sync.OnceFunc(func() { close(g.release) })
	defer release()

	// One request parks the worker, then a second waits for it. They go
	// one after the other: sent together, the second could be shed on
	// the depth of the first before a worker takes it.
	codes := make(chan int, 2)
	for i, n := range []int{9, 11} {
		go func() {
			codes <- serveRoute(s, http.MethodGet, fmt.Sprintf("/plan?n=%d&strategy=%s", n, g.name), "").Code
		}()
		if i == 0 {
			waitStarted(t, g)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never waited for the worker")
		}
		time.Sleep(time.Millisecond)
	}

	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/plan?n=13"},
		{http.MethodPost, "/plan/batch"},
		{http.MethodPost, "/plan/delta"},
		{http.MethodGet, "/simulate?n=13"},
		{http.MethodPost, "/verify"},
	} {
		rec := serveRoute(s, tc.method, tc.path, "")
		path, _, _ := strings.Cut(tc.path, "?")
		want := fmt.Sprintf("{\n  \"error\": \"%s over admission limit: request shed\",\n  \"retryAfter\": \"1s\"\n}\n", path)
		if rec.Code != http.StatusTooManyRequests || rec.Body.String() != want {
			t.Errorf("%s %s: %d %q, want 429 %q", tc.method, tc.path, rec.Code, rec.Body.String(), want)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "1" {
			t.Errorf("%s %s: Retry-After %q, want 1", tc.method, tc.path, ra)
		}
	}

	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("parked /plan finished %d, want 200", code)
		}
	}
	serveRoute(s, http.MethodGet, "/verify", "")
	serveRoute(s, http.MethodGet, "/healthz", "")
	serveRoute(s, http.MethodGet, "/readyz", "")

	const golden = `cycled_cache_hits_total{store="coverings"} 2
cycled_cache_misses_total{store="coverings"} 2
cycled_cache_coalesced_total{store="coverings"} 0
cycled_cache_abandoned_total{store="coverings"} 0
cycled_cache_cancelled_total{store="coverings"} 0
cycled_cache_evictions_total{store="coverings"} 0
cycled_cache_entries{store="coverings"} 2
cycled_cache_hits_total{store="networks"} 0
cycled_cache_misses_total{store="networks"} 2
cycled_cache_coalesced_total{store="networks"} 0
cycled_cache_abandoned_total{store="networks"} 0
cycled_cache_cancelled_total{store="networks"} 0
cycled_cache_evictions_total{store="networks"} 0
cycled_cache_entries{store="networks"} 2
cycled_pool_executed_total 2
cycled_pool_running 0
cycled_queue_depth 0
cycled_shed_total 5
cycled_shed_path_total{path="/plan"} 1
cycled_shed_path_total{path="/plan/batch"} 1
cycled_shed_path_total{path="/plan/delta"} 1
cycled_shed_path_total{path="/simulate"} 1
cycled_shed_path_total{path="/verify"} 1
cycled_degraded_total 0
cycled_degraded_stale_total 0
cycled_panics_recovered_total 0
cycled_http_requests_total{path="/healthz"} 1
cycled_http_requests_total{path="/metrics"} 1
cycled_http_requests_total{path="/plan"} 3
cycled_http_requests_total{path="/plan/batch"} 1
cycled_http_requests_total{path="/plan/delta"} 1
cycled_http_requests_total{path="/readyz"} 1
cycled_http_requests_total{path="/simulate"} 1
cycled_http_requests_total{path="/verify"} 2
`
	if got := scrapeMetrics(t, s); got != golden {
		t.Fatalf("/metrics after the fixed history:\n%s\nwant:\n%s", got, golden)
	}
}

// TestRouteCountsConcurrent: goroutines sending a fixed mix of routes and
// methods at once lose no count: each path's cycled_http_requests_total
// equals what was sent to it.
func TestRouteCountsConcurrent(t *testing.T) {
	s := New(Config{CacheSize: 8, Workers: 2, MaxInflight: 64, MaxQueue: 128})
	defer s.Close()
	if rec := serveRoute(s, http.MethodGet, "/plan?n=7", ""); rec.Code != http.StatusOK {
		t.Fatalf("warm-up /plan status %d", rec.Code)
	}
	mix := []struct{ method, target string }{
		{http.MethodGet, "/plan?n=7"},
		{http.MethodDelete, "/plan"},
		{http.MethodGet, "/plan/batch"},
		{http.MethodGet, "/plan/delta"},
		{http.MethodPut, "/simulate"},
		{http.MethodGet, "/verify"},
		{http.MethodGet, "/healthz"},
		{http.MethodGet, "/livez"},
		{http.MethodGet, "/readyz"},
	}
	const goroutines, rounds = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, m := range mix {
					serveRoute(s, m.method, m.target, "")
				}
			}
		}()
	}
	wg.Wait()
	metrics := scrapeMetrics(t, s)
	for _, m := range mix {
		path, _, _ := strings.Cut(m.target, "?")
		want := goroutines * rounds
		if path == "/plan" {
			want = 2*goroutines*rounds + 1 // two mix entries, plus the warm-up
		}
		line := fmt.Sprintf("cycled_http_requests_total{path=%q} %d\n", path, want)
		if !strings.Contains(metrics, line) {
			t.Errorf("metrics missing %q:\n%s", line, metrics)
		}
	}
	if !strings.Contains(metrics, "cycled_shed_total 0\n") {
		t.Errorf("requests shed under the daemon's limits:\n%s", metrics)
	}
}
