package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{CacheSize: 32, Workers: 4, Queue: 16})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestPlanHandlerTable drives /plan through its status codes and JSON
// shape.
func TestPlanHandlerTable(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name   string
		query  string
		status int
		// wantFields must appear as top-level JSON keys on 200s.
		wantFields []string
	}{
		{"odd all-to-all", "n=9", http.StatusOK,
			[]string{"signature", "n", "demand", "size", "rho", "optimal", "method", "cycles", "wavelengths", "adms", "maxTransit", "cost", "cacheHit"}},
		{"even all-to-all", "n=8", http.StatusOK, nil},
		{"hub demand", "n=10&demand=hub:3", http.StatusOK, nil},
		{"lambda demand", "n=7&demand=lambda:2", http.StatusOK, nil},
		{"neighbors demand", "n=9&demand=neighbors", http.StatusOK, nil},
		{"missing n", "", http.StatusBadRequest, nil},
		{"non-numeric n", "n=abc", http.StatusBadRequest, nil},
		{"ring too small", "n=2", http.StatusBadRequest, nil},
		{"negative n", "n=-5", http.StatusBadRequest, nil},
		{"n beyond service limit", "n=99999", http.StatusBadRequest, nil},
		{"unknown demand", "n=9&demand=bogus", http.StatusBadRequest, nil},
		{"bad hub", "n=9&demand=hub:99", http.StatusBadRequest, nil},
		{"oversized lambda workload", "n=1000&demand=lambda:100", http.StatusBadRequest, nil},
		{"overflowing lambda", "n=5&demand=lambda:1152921504606846976", http.StatusBadRequest, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, ts.URL+"/plan?"+tc.query)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("content-type = %q", ct)
			}
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatalf("non-JSON body %s: %v", body, err)
			}
			if tc.status != http.StatusOK {
				if _, ok := m["error"]; !ok {
					t.Fatalf("error body missing error field: %s", body)
				}
				return
			}
			for _, f := range tc.wantFields {
				if _, ok := m[f]; !ok {
					t.Errorf("response missing field %q: %s", f, body)
				}
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/plan?n=9", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestPlanCacheHitHeader asserts the golden MISS→HIT transition and the
// cacheHit body flag.
func TestPlanCacheHitHeader(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/plan?n=13")
	if h := resp.Header.Get("X-Cache"); h != "MISS" {
		t.Fatalf("first X-Cache = %q, want MISS (body %s)", h, body)
	}
	var first planResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first response claims cacheHit")
	}
	if first.Rho == 0 || first.Size != first.Rho || !first.Optimal {
		t.Fatalf("K_13 plan not optimal: %+v", first)
	}

	resp, body = get(t, ts.URL+"/plan?n=13")
	if h := resp.Header.Get("X-Cache"); h != "HIT" {
		t.Fatalf("second X-Cache = %q, want HIT", h)
	}
	var second planResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.Size != first.Size || second.Signature != first.Signature {
		t.Fatalf("cached response drifted: %+v vs %+v", second, first)
	}
}

// TestVerifyHandlerTable drives /verify through its verdicts.
func TestVerifyHandlerTable(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name   string
		req    verifyRequest
		status int
		valid  bool
	}{
		{"valid K_4 covering from the paper",
			verifyRequest{N: 4, Cycles: [][]int{{0, 1, 2, 3}, {0, 1, 3}, {0, 2, 3}}},
			http.StatusOK, true},
		{"missing demand edge",
			verifyRequest{N: 5, Cycles: [][]int{{0, 1, 2}}},
			http.StatusUnprocessableEntity, false},
		{"malformed cycle",
			verifyRequest{N: 5, Cycles: [][]int{{0, 0, 1}}},
			http.StatusUnprocessableEntity, false},
		{"cycle too short",
			verifyRequest{N: 5, Cycles: [][]int{{0, 1}}},
			http.StatusUnprocessableEntity, false},
		{"hub demand satisfied",
			verifyRequest{N: 5, Cycles: [][]int{{0, 1, 2}, {0, 2, 3}, {0, 3, 4}}, Demand: "hub:0"},
			http.StatusOK, true},
		{"ring too small", verifyRequest{N: 2}, http.StatusBadRequest, false},
		{"negative n", verifyRequest{N: -7}, http.StatusBadRequest, false},
		{"n beyond service limit", verifyRequest{N: MaxRingSize + 1}, http.StatusBadRequest, false},
		{"bad demand spec", verifyRequest{N: 5, Demand: "bogus"}, http.StatusBadRequest, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/verify", tc.req)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if tc.status == http.StatusBadRequest {
				return
			}
			var vr verifyResponse
			if err := json.Unmarshal(body, &vr); err != nil {
				t.Fatal(err)
			}
			if vr.Valid != tc.valid {
				t.Fatalf("valid = %v, want %v (%s)", vr.Valid, tc.valid, body)
			}
			if !vr.Valid && vr.Error == "" {
				t.Fatal("invalid verdict carries no reason")
			}
		})
	}

	t.Run("oversized body rejected", func(t *testing.T) {
		blob := append([]byte(`{"n":5,"cycles":[[0,1,2]],"demand":"`), bytes.Repeat([]byte("x"), 9<<20)...)
		blob = append(blob, '"', '}')
		resp, err := http.Post(ts.URL+"/verify", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", resp.StatusCode)
		}
	})
	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/verify", "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("GET not allowed", func(t *testing.T) {
		resp, _ := get(t, ts.URL+"/verify")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestPlanVerifyRoundTrip is the end-to-end flow: plan a covering over
// HTTP, feed the returned cycles back through /verify, and expect a
// valid, optimal verdict.
func TestPlanVerifyRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{"n=11", "n=8", "n=10&demand=hub:2"} {
		resp, body := get(t, ts.URL+"/plan?"+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan %s: status %d (%s)", q, resp.StatusCode, body)
		}
		var plan planResponse
		if err := json.Unmarshal(body, &plan); err != nil {
			t.Fatal(err)
		}
		demand := "alltoall"
		if strings.Contains(q, "hub") {
			demand = "hub:2"
		}
		resp, body = postJSON(t, ts.URL+"/verify", verifyRequest{N: plan.N, Cycles: plan.Cycles, Demand: demand})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verify of planned %s: status %d (%s)", q, resp.StatusCode, body)
		}
		var vr verifyResponse
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if !vr.Valid {
			t.Fatalf("planned covering rejected by its own verifier: %s", body)
		}
		if q == "n=11" && !vr.Optimal {
			t.Fatalf("K_11 round trip lost optimality: %s", body)
		}
	}
}

// TestWriteJSONFormat pins the bytes of every JSON answer to
// json.MarshalIndent with two-space indent plus a newline, across reuse
// of the pooled encoders: a large value, a small one after it, a value
// that fails to encode (a clean 500), and a value after that failure.
func TestWriteJSONFormat(t *testing.T) {
	large := planResponse{Signature: "n=9;d=k1", N: 9, Demand: "alltoall", Size: 12, Rho: 12, Cost: 1.5}
	for i := 0; i < 200; i++ {
		large.Cycles = append(large.Cycles, []int{i, i + 1, i + 2})
	}
	small := errorBody{Error: "bad <n> & \"spec\""}
	for _, v := range []any{large, small, math.Inf(1), small, large} {
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, v)
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			if w.Code != http.StatusInternalServerError || w.Body.String() != "{\"error\":\"response encoding failed\"}\n" {
				t.Fatalf("unencodable %v: got %d %q, want a clean 500", v, w.Code, w.Body.String())
			}
			continue
		}
		if got := w.Body.String(); w.Code != http.StatusOK || got != string(want)+"\n" {
			t.Fatalf("%T: got %d\n%s\nwant 200\n%s", v, w.Code, got, want)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q", h.Status)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts.URL+"/plan?n=9")
	get(t, ts.URL+"/plan?n=9")
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	text := string(body)
	for _, metric := range []string{
		`cycled_cache_hits_total{store="coverings"}`,
		`cycled_cache_misses_total{store="networks"}`,
		"cycled_pool_executed_total",
		`cycled_http_requests_total{path="/plan"} 2`,
		"cycled_uptime_seconds",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics missing %q:\n%s", metric, text)
		}
	}
}

// TestConcurrentPlans hammers /plan from many goroutines across a few
// signatures; under -race this is the service's concurrency test, and the
// cache must still have computed each signature exactly once.
func TestConcurrentPlans(t *testing.T) {
	s, ts := newTestServer(t)
	ns := []int{9, 10, 11, 12}
	var wg sync.WaitGroup
	for w := 0; w < 24; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				n := ns[(w+i)%len(ns)]
				resp, err := http.Get(fmt.Sprintf("%s/plan?n=%d", ts.URL, n))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("n=%d: status %d (%s)", n, resp.StatusCode, body)
					return
				}
				var plan planResponse
				if err := json.Unmarshal(body, &plan); err != nil {
					t.Error(err)
					return
				}
				if plan.N != n || plan.Size == 0 {
					t.Errorf("n=%d: bogus plan %+v", n, plan)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Plans().Stats(); st.Coverings.Misses > uint64(len(ns)) {
		t.Fatalf("constructions exceeded distinct signatures: %+v", st)
	}
}

// postNDJSON posts raw NDJSON to url and returns the parsed response
// lines.
func postNDJSON(t *testing.T, url, body string) (*http.Response, []batchPlanLine) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var lines []batchPlanLine
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if ln == "" {
			continue
		}
		var l batchPlanLine
		if err := json.Unmarshal([]byte(ln), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		lines = append(lines, l)
	}
	return resp, lines
}

// TestPlanBatchMixedItems drives /plan/batch with valid, invalid and
// malformed lines at once: every line gets exactly one answer, failures
// stay in their slot, and the batch itself still succeeds.
func TestPlanBatchMixedItems(t *testing.T) {
	_, ts := newTestServer(t)
	body := strings.Join([]string{
		`{"n": 9}`,                           // 0: odd all-to-all
		`{"n": 8, "demand": "alltoall"}`,     // 1: even all-to-all
		`{"n": 10, "demand": "hub:3"}`,       // 2: hub
		`{"n": 9, "demand": "hub:99"}`,       // 3: out-of-range hub → error
		`{"n": 2}`,                           // 4: ring too small → error
		`not json at all`,                    // 5: malformed line → error
		`{"n": 9, "demand": "random:NaN:1"}`, // 6: non-finite density → error
		`{"n": 7, "demand": "lambda:2"}`,     // 7: λK_n
	}, "\n")
	resp, lines := postNDJSON(t, ts.URL+"/plan/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("content-type = %q", ct)
	}
	if len(lines) != 8 {
		t.Fatalf("got %d result lines, want 8", len(lines))
	}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d carries index %d: lines must stream in input order", i, l.Index)
		}
	}
	byIndex := map[int]batchPlanLine{}
	for _, l := range lines {
		if _, dup := byIndex[l.Index]; dup {
			t.Fatalf("index %d answered twice", l.Index)
		}
		byIndex[l.Index] = l
	}
	wantErr := map[int]string{
		3: "[0, 9)", // hub range must be named
		4: "",       // ring too small
		5: "bad batch line",
		6: "finite", // non-finite density must be named
	}
	for i := 0; i < 8; i++ {
		l, ok := byIndex[i]
		if !ok {
			t.Fatalf("no answer for index %d", i)
		}
		if substr, bad := wantErr[i]; bad {
			if l.Error == "" || l.Plan != nil {
				t.Fatalf("index %d: want error line, got %+v", i, l)
			}
			if !strings.Contains(l.Error, substr) {
				t.Fatalf("index %d: error %q does not mention %q", i, l.Error, substr)
			}
			continue
		}
		if l.Error != "" || l.Plan == nil {
			t.Fatalf("index %d: want plan, got error %q", i, l.Error)
		}
		if l.Plan.Size == 0 || len(l.Plan.Cycles) != l.Plan.Size {
			t.Fatalf("index %d: inconsistent plan %+v", i, l.Plan)
		}
	}
	if byIndex[0].Plan.Rho != 10 || byIndex[0].Plan.N != 9 {
		t.Fatalf("index 0: rho/n = %d/%d, want 10/9", byIndex[0].Plan.Rho, byIndex[0].Plan.N)
	}
}

// TestPlanBatchCoalescesDuplicates: a batch of identical requests must
// cost one construction — each item takes a worker, and the cache's
// single flight shares the construction among them.
func TestPlanBatchCoalescesDuplicates(t *testing.T) {
	s, ts := newTestServer(t)
	var b strings.Builder
	const items = 24
	for i := 0; i < items; i++ {
		b.WriteString(`{"n": 13}` + "\n")
	}
	resp, lines := postNDJSON(t, ts.URL+"/plan/batch", b.String())
	if resp.StatusCode != http.StatusOK || len(lines) != items {
		t.Fatalf("status %d, %d lines", resp.StatusCode, len(lines))
	}
	for _, l := range lines {
		if l.Error != "" || l.Plan == nil || l.Plan.Size != 21 {
			t.Fatalf("line %+v: want a 21-cycle K_13 plan", l)
		}
	}
	if st := s.Plans().Stats(); st.Coverings.Misses != 1 {
		t.Fatalf("%d constructions for %d identical batch items, want 1", st.Coverings.Misses, items)
	}
}

// TestPlanBatchRequestValidation covers the whole-request failures.
func TestPlanBatchRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)

	resp, body := get(t, ts.URL+"/plan/batch")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405 (%s)", resp.StatusCode, body)
	}

	resp, _ = postNDJSON(t, ts.URL+"/plan/batch", "\n\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}

	var big strings.Builder
	for i := 0; i <= MaxBatchItems; i++ {
		big.WriteString(`{"n": 9}` + "\n")
	}
	resp, _ = postNDJSON(t, ts.URL+"/plan/batch", big.String())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413", resp.StatusCode)
	}
}

// TestPlanRejectsNonFiniteDensity pins the HTTP mapping of the NaN
// density bug: strconv parses "NaN", the demand parser must refuse it,
// and the handler must answer 400 — not 200 with an empty demand.
func TestPlanRejectsNonFiniteDensity(t *testing.T) {
	_, ts := newTestServer(t)
	// %2B is "+": unescaped it would decode to a space and fail parsing
	// for the wrong reason.
	for _, spec := range []string{"random:NaN:1", "random:Inf:1", "random:-Inf:2", "random:%2BInf:3"} {
		resp, body := get(t, ts.URL+"/plan?n=9&demand="+spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (body %s)", spec, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "finite") {
			t.Fatalf("%s: error %s does not name the finite-density requirement", spec, body)
		}
	}
}

// BenchmarkPlanBatchWarm measures the NDJSON batch path against a warm
// cache: per-item cost is validation + pool round-trip + clone/encode.
func BenchmarkPlanBatchWarm(b *testing.B) {
	s := New(Config{CacheSize: 64, Workers: 4, Queue: 32})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var body strings.Builder
	for _, n := range []int{9, 10, 11, 12, 13, 9, 11, 13} {
		fmt.Fprintf(&body, "{\"n\": %d}\n", n)
	}
	warm, err := http.Post(ts.URL+"/plan/batch", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/plan/batch", "application/x-ndjson", strings.NewReader(body.String()))
		if err != nil {
			b.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || strings.Count(string(out), "\n") != 8 {
			b.Fatalf("status %d, %d lines", resp.StatusCode, strings.Count(string(out), "\n"))
		}
	}
}

// BenchmarkPlanBatchCold is a lone client's batch of 16 distinct cold
// ring plans (random:0.3:1, n = 41, 43, …, 71) against a fresh server
// with the default pool (GOMAXPROCS workers): every item constructs,
// verifies and plans WDM.
func BenchmarkPlanBatchCold(b *testing.B) {
	var body strings.Builder
	for n := 41; n <= 71; n += 2 {
		fmt.Fprintf(&body, "{\"n\": %d, \"demand\": \"random:0.3:1\"}\n", n)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(Config{CacheSize: 64, Queue: 32})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan/batch", strings.NewReader(body.String())))
		s.Close()
		if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), `"plan"`) != 16 {
			b.Fatalf("status %d: %.300s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkPlanHit measures a warm /plan answer through the handler:
// parse, signature, cache hits, facts and the indented encode. The
// answer is discarded, so B/op counts only the server's own garbage.
func BenchmarkPlanHit(b *testing.B) {
	for _, n := range []int{15, 51, 101} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := New(Config{CacheSize: 8, Workers: 2})
			defer s.Close()
			h := s.Handler()
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/plan?n=%d", n), nil)
			h.ServeHTTP(&discardResponse{}, req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := &discardResponse{}
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
		})
	}
}

// BenchmarkPlanHitGuarded measures a warm K_101 /plan answer through the
// handler under the benchmark daemon's guards: a plan deadline, the
// degrade decision's cost-model lookup, and admission's in-flight and
// queue-depth checks, none of which BenchmarkPlanHit runs.
func BenchmarkPlanHitGuarded(b *testing.B) {
	s := New(Config{CacheSize: 8, Workers: 2, PlanTimeout: 30 * time.Second, Degrade: true, MaxInflight: 64, MaxQueue: 128})
	defer s.Close()
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/plan?n=101", nil)
	h.ServeHTTP(&discardResponse{}, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &discardResponse{}
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// discardResponse is an http.ResponseWriter that keeps only the status.
type discardResponse struct {
	header http.Header
	status int
}

func (w *discardResponse) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *discardResponse) WriteHeader(status int) { w.status = status }

func (w *discardResponse) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// TestEmptyCoveringAnswersEmptyList: an empty demand gets an empty
// covering, and both /plan and a /plan/batch line must carry it as
// "cycles": [], never null — a strict client reads null as a missing
// field, while size says 0.
func TestEmptyCoveringAnswersEmptyList(t *testing.T) {
	_, ts := newTestServer(t)
	cyclesOf := func(t *testing.T, plan json.RawMessage) string {
		t.Helper()
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(plan, &fields); err != nil {
			t.Fatalf("undecodable plan %s: %v", plan, err)
		}
		return string(fields["cycles"])
	}
	resp, body := get(t, ts.URL+"/plan?n=4&demand=random:0.0:1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/plan: status %d: %s", resp.StatusCode, body)
	}
	if got := cyclesOf(t, body); got != "[]" {
		t.Fatalf("/plan: cycles = %s, want []", got)
	}
	resp, err := http.Post(ts.URL+"/plan/batch", "application/x-ndjson", strings.NewReader(`{"n": 4, "demand": "random:0.0:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/plan/batch: status %d, err %v: %s", resp.StatusCode, err, raw)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(bytes.TrimSpace(raw), &line); err != nil {
		t.Fatalf("/plan/batch: undecodable line %s: %v", raw, err)
	}
	if got := cyclesOf(t, line["plan"]); got != "[]" {
		t.Fatalf("/plan/batch: cycles = %s, want []", got)
	}
}
