package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// simBody is the response shape the tests decode; it mirrors
// simulateResponse with the sweep fields the assertions need.
type simBody struct {
	Signature   string `json:"signature"`
	N           int    `json:"n"`
	Strategy    string `json:"strategy"`
	Subnets     int    `json:"subnets"`
	Wavelengths int    `json:"wavelengths"`
	CacheHit    bool   `json:"cacheHit"`
	Sweep       struct {
		K                int     `json:"k"`
		Scenarios        int64   `json:"scenarios"`
		Planned          int     `json:"planned"`
		Evaluated        int     `json:"evaluated"`
		Sampled          bool    `json:"sampled"`
		Complete         bool    `json:"complete"`
		AllRestored      bool    `json:"allRestored"`
		LossyScenarios   int     `json:"lossyScenarios"`
		MeanRestoration  float64 `json:"meanRestoration"`
		WorstRestoration float64 `json:"worstRestoration"`
		Critical         []struct {
			Link        int `json:"link"`
			Scenarios   int `json:"scenarios"`
			LostDemands int `json:"lostDemands"`
		} `json:"critical"`
	} `json:"sweep"`
}

// TestSimulateSingleFailure: the design's core guarantee over HTTP — a
// k = 1 sweep of an all-to-all plan restores everything, exhaustively.
func TestSimulateSingleFailure(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/simulate?n=11")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sb simBody
	if err := json.Unmarshal(body, &sb); err != nil {
		t.Fatalf("bad JSON: %v (%s)", err, body)
	}
	sw := sb.Sweep
	if sw.K != 1 || sw.Scenarios != 11 || sw.Evaluated != 11 || !sw.Complete || sw.Sampled {
		t.Fatalf("k=1 sweep bookkeeping: %+v", sw)
	}
	if !sw.AllRestored || sw.MeanRestoration != 1 || sw.WorstRestoration != 1 {
		t.Fatalf("single failures must restore everything: %+v", sw)
	}
	if sb.Subnets == 0 || sb.Wavelengths != 2*sb.Subnets {
		t.Fatalf("plan facts missing: %+v", sb)
	}
	if sb.Signature == "" {
		t.Fatal("response must carry the plan signature")
	}
}

// TestSimulateDoubleFailurePlanReuse: k = 2 finds loss and attributes
// it, and a second simulation of the same instance reuses the cached
// plan (plan once, sweep many).
func TestSimulateDoubleFailurePlanReuse(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/simulate?n=8&k=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sb simBody
	if err := json.Unmarshal(body, &sb); err != nil {
		t.Fatal(err)
	}
	sw := sb.Sweep
	if sw.K != 2 || sw.Scenarios != 28 || !sw.Complete {
		t.Fatalf("k=2 bookkeeping: %+v", sw)
	}
	if sw.AllRestored || sw.LossyScenarios == 0 || len(sw.Critical) == 0 {
		t.Fatalf("double failures on a ring must lose something: %+v", sw)
	}
	if sw.WorstRestoration >= sw.MeanRestoration && sw.WorstRestoration != sw.MeanRestoration {
		t.Fatalf("worst %f above mean %f", sw.WorstRestoration, sw.MeanRestoration)
	}
	if sb.CacheHit {
		t.Fatal("first simulation cannot be a cache hit")
	}

	// Different k, same instance: the plan must come from the cache.
	resp, body = get(t, ts.URL+"/simulate?n=8&k=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sb2 simBody
	if err := json.Unmarshal(body, &sb2); err != nil {
		t.Fatal(err)
	}
	if !sb2.CacheHit {
		t.Fatal("second simulation of the signature must reuse the cached plan")
	}
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache = %q, want HIT", resp.Header.Get("X-Cache"))
	}
	if sb2.Signature != sb.Signature {
		t.Fatalf("plan signatures diverged: %q vs %q", sb.Signature, sb2.Signature)
	}
}

// TestSimulateSampledSweep: k = 3 on a space beyond the sample bound is
// sampled, honest about it, and reproducible per seed.
func TestSimulateSampledSweep(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/simulate?n=14&k=3&sample=25&seed=9"
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var a simBody
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	if !a.Sweep.Sampled || a.Sweep.Complete || a.Sweep.Planned != 25 || a.Sweep.Scenarios != 364 {
		t.Fatalf("sampled sweep bookkeeping: %+v", a.Sweep)
	}
	_, body2 := get(t, url)
	var b simBody
	if err := json.Unmarshal(body2, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Sweep, b.Sweep) {
		t.Fatalf("same seed must reproduce the sweep:\n%+v\n%+v", a.Sweep, b.Sweep)
	}
}

// TestSimulateStrategyParam: a forced strategy is accepted, echoed, and
// keyed into the plan signature.
func TestSimulateStrategyParam(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/simulate?n=9&strategy=greedy")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sb simBody
	if err := json.Unmarshal(body, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Strategy != "greedy" || !strings.Contains(sb.Signature, ";s=greedy") {
		t.Fatalf("strategy not keyed: %+v", sb)
	}
	if !sb.Sweep.AllRestored {
		t.Fatal("greedy plans must also be single-failure survivable")
	}
}

// TestSimulateErrorTable drives every input-validation path of
// /simulate.
func TestSimulateErrorTable(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name  string
		query string
		want  int
		msg   string // substring the error body must carry
	}{
		{"missing n", "/simulate", http.StatusBadRequest, "missing required parameter n"},
		{"bad n", "/simulate?n=abc", http.StatusBadRequest, "bad n"},
		{"tiny n", "/simulate?n=2", http.StatusBadRequest, "below minimum"},
		{"oversized n", "/simulate?n=2000", http.StatusBadRequest, "exceeds limit"},
		{"bad k", "/simulate?n=9&k=x", http.StatusBadRequest, "bad k"},
		{"zero k", "/simulate?n=9&k=0", http.StatusBadRequest, "outside [1,"},
		{"negative k", "/simulate?n=9&k=-2", http.StatusBadRequest, "outside [1,"},
		{"k beyond cap", "/simulate?n=9&k=7", http.StatusBadRequest, "at most 6"},
		{"k beyond links", "/simulate?n=4&k=5", http.StatusBadRequest, "outside [1, 4]"},
		{"bad sample", "/simulate?n=9&sample=x", http.StatusBadRequest, "bad sample"},
		{"zero sample", "/simulate?n=9&sample=0", http.StatusBadRequest, "sample = 0"},
		{"oversized sample", "/simulate?n=9&sample=100000", http.StatusBadRequest, "sample = 100000"},
		{"bad seed", "/simulate?n=9&seed=x", http.StatusBadRequest, "bad seed"},
		{"unknown strategy", "/simulate?n=9&strategy=quantum", http.StatusBadRequest, "unknown strategy"},
		{"bad demand", "/simulate?n=9&demand=nope", http.StatusBadRequest, "demand"},
		{"inapplicable strategy", "/simulate?n=9&demand=hub:0&strategy=closed-form", http.StatusBadRequest, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := get(t, ts.URL+c.query)
			if resp.StatusCode != c.want {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, c.want, body)
			}
			if c.msg != "" && !strings.Contains(string(body), c.msg) {
				t.Fatalf("body %q missing %q", body, c.msg)
			}
		})
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/simulate?n=9", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: status %d, want 405", resp.StatusCode)
	}
}

// TestSimulateTimeout504 pins the deadline contract on /simulate: when
// the planning stage out-runs the configured plan timeout, the request
// answers 504 with the structured timeout body — and the service stays
// healthy for a fast simulation afterwards.
func TestSimulateTimeout504(t *testing.T) {
	s := New(Config{CacheSize: 32, Workers: 2, Queue: 8, PlanTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	start := time.Now()
	resp, body := get(t, ts.URL+"/simulate?n=24&strategy=exact")
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("504 took %v — the deadline did not cut the work", elapsed)
	}
	var tb struct {
		Error   string `json:"error"`
		Timeout string `json:"timeout"`
	}
	if err := json.Unmarshal(body, &tb); err != nil {
		t.Fatalf("504 body is not JSON: %v (%s)", err, body)
	}
	if tb.Timeout != "100ms" || tb.Error == "" {
		t.Fatalf("504 body incomplete: %+v", tb)
	}

	resp, body = get(t, ts.URL+"/simulate?n=9&k=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast simulate after timeout: %d (%s)", resp.StatusCode, body)
	}
}

// TestParseSweepOptionsNormalization is the table over the /simulate
// sweep parameters: defaults and bounds. The sampler fields (sample,
// seed) pass through at every k; a sweep that enumerates its space
// ignores them (TestSimulateEchoesNormalizedSeed).
func TestParseSweepOptionsNormalization(t *testing.T) {
	const links = 11
	cases := []struct {
		name  string
		query string
		want  struct {
			k      int
			sample int
			seed   int64
		}
		wantErr string
	}{
		{name: "defaults", query: "",
			want: struct {
				k      int
				sample int
				seed   int64
			}{1, DefaultSweepSample, 0}},
		{name: "k1 sampler params passed through", query: "k=1&sample=99&seed=7",
			want: struct {
				k      int
				sample int
				seed   int64
			}{1, 99, 7}},
		{name: "k2 sampler params passed through", query: "k=2&sample=8192&seed=-3",
			want: struct {
				k      int
				sample int
				seed   int64
			}{2, 8192, -3}},
		{name: "k3 defaults", query: "k=3",
			want: struct {
				k      int
				sample int
				seed   int64
			}{3, DefaultSweepSample, 0}},
		{name: "k3 sampler params preserved", query: "k=3&sample=99&seed=7",
			want: struct {
				k      int
				sample int
				seed   int64
			}{3, 99, 7}},
		{name: "k zero", query: "k=0", wantErr: "outside"},
		{name: "k above service cap", query: "k=7", wantErr: "outside"},
		{name: "k not a number", query: "k=two", wantErr: "bad k"},
		{name: "sample zero", query: "k=3&sample=0", wantErr: "outside"},
		{name: "sample above cap", query: "k=3&sample=8193", wantErr: "outside"},
		{name: "sample not a number", query: "k=3&sample=lots", wantErr: "bad sample"},
		{name: "seed not a number", query: "k=3&seed=x", wantErr: "bad seed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodGet, "/simulate?n=11&"+c.query, nil)
			opts, err := parseSweepOptions(r, links)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if opts.K != c.want.k || opts.Sample != c.want.sample || opts.Seed != c.want.seed {
				t.Fatalf("normalized to k=%d sample=%d seed=%d, want k=%d sample=%d seed=%d",
					opts.K, opts.Sample, opts.Seed, c.want.k, c.want.sample, c.want.seed)
			}
			if opts.MaxScenarios != MaxSweepScenarios {
				t.Fatalf("MaxScenarios = %d, want service cap %d", opts.MaxScenarios, MaxSweepScenarios)
			}
		})
	}

	// k is also bounded by the link count, below the service cap.
	r := httptest.NewRequest(http.MethodGet, "/simulate?n=4&k=5", nil)
	if _, err := parseSweepOptions(r, 4); err == nil {
		t.Fatal("k above the link count must be rejected")
	}
}

// TestSimulateEchoesNormalizedSeed drives the seed rule through the
// HTTP surface: a sweep that enumerates its whole space reports seed 0
// whatever seed the request carried, so identical sweeps answer alike —
// k = 2, and k = 3 on a space (C(6,3) = 20) within the sample size.
func TestSimulateEchoesNormalizedSeed(t *testing.T) {
	_, ts := newTestServer(t)
	sweepOf := func(query string) json.RawMessage {
		t.Helper()
		resp, body := get(t, ts.URL+"/simulate?"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, resp.StatusCode, body)
		}
		var sb struct {
			Sweep json.RawMessage `json:"sweep"`
		}
		if err := json.Unmarshal(body, &sb); err != nil {
			t.Fatalf("%s: bad JSON: %v (%s)", query, err, body)
		}
		return sb.Sweep
	}
	for _, c := range []struct {
		k     int
		query []string
	}{
		{2, []string{"n=9&k=2&seed=99&sample=77"}},
		{3, []string{"n=6&k=3&seed=5", "n=6&k=3&seed=6"}},
	} {
		var first json.RawMessage
		for _, q := range c.query {
			raw := sweepOf(q)
			var sw struct {
				K        int   `json:"k"`
				Seed     int64 `json:"seed"`
				Sampled  bool  `json:"sampled"`
				Complete bool  `json:"complete"`
			}
			if err := json.Unmarshal(raw, &sw); err != nil {
				t.Fatalf("%s: bad sweep JSON: %v (%s)", q, err, raw)
			}
			if sw.K != c.k || sw.Seed != 0 || sw.Sampled || !sw.Complete {
				t.Fatalf("%s: an enumerated sweep must report seed 0, complete and not sampled: %+v", q, sw)
			}
			if first == nil {
				first = raw
			} else if !bytes.Equal(raw, first) {
				t.Fatalf("%s: identical sweeps answer differently:\n%s\n%s", q, first, raw)
			}
		}
	}
}

// TestK22PlanVerifySimulate pins the even closed form end to end at the
// first size the old search could not reach: K_22 plans at ρ(22) = 61
// cycles with `optimal: true` and method even-inductive, its cover has
// five-cycles, /verify accepts it as valid and optimal, and a single
// failure sweep over its network restores everything.
func TestK22PlanVerifySimulate(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/plan?n=22&demand=alltoall")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d (%s)", resp.StatusCode, body)
	}
	var plan planResponse
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Size != 61 || plan.Rho != 61 || !plan.Optimal || plan.Method != "even-inductive" {
		t.Fatalf("K_22 plan: size %d rho %d optimal %v method %q, want 61 61 true even-inductive",
			plan.Size, plan.Rho, plan.Optimal, plan.Method)
	}
	fives := 0
	for _, c := range plan.Cycles {
		if len(c) == 5 {
			fives++
		}
	}
	if len(plan.Cycles) != 61 || fives == 0 {
		t.Fatalf("K_22 plan: %d cycles, %d of them five-cycles; want 61 with five-cycles", len(plan.Cycles), fives)
	}
	resp, body = postJSON(t, ts.URL+"/verify", verifyRequest{N: 22, Cycles: plan.Cycles, Demand: "alltoall"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d (%s)", resp.StatusCode, body)
	}
	var vr verifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Valid || !vr.Optimal || vr.Size != 61 {
		t.Fatalf("verify of the K_22 plan: %s", body)
	}
	resp, body = get(t, ts.URL+"/simulate?n=22")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d (%s)", resp.StatusCode, body)
	}
	var sb simBody
	if err := json.Unmarshal(body, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Subnets != 61 || !sb.CacheHit || !sb.Sweep.AllRestored || sb.Sweep.Scenarios != 22 || !sb.Sweep.Complete {
		t.Fatalf("simulate of K_22: subnets %d cacheHit %v sweep %+v", sb.Subnets, sb.CacheHit, sb.Sweep)
	}
}
