package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/cyclecover/cyclecover"
)

// FuzzVerifyBody posts arbitrary bytes to /verify. Every answer must be
// a verdict (200, 422) or a rejected request (400, 413): a 500 would mean
// the pool recovered a panic on outside input.
func FuzzVerifyBody(f *testing.F) {
	s := New(Config{CacheSize: 8, Workers: 1})
	f.Cleanup(s.Close)
	planned := func(n int, demand string) []byte {
		resp, _, err := s.planOne(context.Background(), n, demand, "")
		if err != nil {
			f.Fatal(err)
		}
		req := verifyRequest{N: n, Demand: demand}
		for _, c := range resp.cycles {
			req.Cycles = append(req.Cycles, c.Vertices())
		}
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	k5 := planned(5, "alltoall")
	f.Add(k5)
	f.Add(planned(10, "petersen"))
	f.Add(k5[:len(k5)/2])
	f.Add([]byte(`{"n":5,"cycles":[[0,1,7]]}`))
	f.Add([]byte(`{"n":1025,"cycles":[[0,1,2]]}`))
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/verify", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("POST /verify %q answered %d: %s", body, rec.Code, rec.Body)
		}
	})
}

// FuzzPlanBatch posts arbitrary NDJSON to /plan/batch. A body is either
// rejected whole (400, 413) or answered 200 with exactly one line per
// non-blank request line, indexes 0..k−1 each once, and every line
// carrying a plan or an error, never both. The short plan timeout keeps
// slow items (large rings) from stalling the fuzzer: they answer with a
// deadline error in their slot.
func FuzzPlanBatch(f *testing.F) {
	s := New(Config{CacheSize: 16, Workers: 2, PlanTimeout: 50 * time.Millisecond})
	f.Cleanup(s.Close)
	for _, body := range []string{
		`{"n":7}` + "\n" + `{"n":9,"demand":"hub:2"}` + "\n",
		`{"n":10,"demand":"petersen"}` + "\r\n\r\n" + `{"n":8,"strategy":"greedy"}`,
		`{"n":5}` + "\n" + `not json` + "\n" + `{"n":2}`,
		`{"n":11,"demand":"alltoall"}` + "\n" + `{"n":11,"demand":"lambda:1"}`,
		`{"n":1023}`,
		`{"n":6,"strategy":"bogus"}`,
		"\n  \n",
		"",
	} {
		f.Add([]byte(body))
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK:
		default:
			t.Fatalf("POST /plan/batch %q answered %d: %s", body, rec.Code, rec.Body)
		}
		k := 0
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				k++
			}
		}
		seen := make([]bool, k)
		dec := json.NewDecoder(rec.Body)
		for dec.More() {
			var line batchPlanLine
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("POST /plan/batch %q: undecodable answer line: %v", body, err)
			}
			if line.Index < 0 || line.Index >= k || seen[line.Index] {
				t.Fatalf("POST /plan/batch %q: index %d out of range or repeated (k=%d)", body, line.Index, k)
			}
			seen[line.Index] = true
			if (line.Plan != nil) == (line.Error != "") {
				t.Fatalf("POST /plan/batch %q: line %d carries plan=%v error=%q", body, line.Index, line.Plan != nil, line.Error)
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("POST /plan/batch %q: no answer for item %d of %d", body, i, k)
			}
		}
	})
}

// planSpec maps fuzz bytes to a ring size n ∈ 3..16 and one demand spec
// from a small grammar covering every family /plan accepts. Some picks
// are invalid on purpose (a hub off the ring, a general family at the
// wrong n), so both the accept and the reject paths get exercised.
func planSpec(n, kind uint8, a, b uint16) (int, string) {
	ringN := 3 + int(n)%14
	switch kind % 8 {
	case 0:
		return ringN, "alltoall"
	case 1:
		return ringN, fmt.Sprintf("lambda:%d", 1+a%3)
	case 2:
		return ringN, fmt.Sprintf("hub:%d", int(a)%(ringN+2))
	case 3:
		return ringN, "neighbors"
	case 4:
		return ringN, fmt.Sprintf("random:0.%d:%d", a%10, b)
	case 5:
		return ringN, "petersen"
	case 6:
		return ringN, fmt.Sprintf("prism:%d", a%10)
	default:
		return ringN, fmt.Sprintf("cubic:%d", b)
	}
}

// FuzzPlanMatchesPlanner is a differential check of the two public
// planning surfaces: GET /plan on the HTTP handler and the library's
// Planner must agree on every instance. A request is rejected (400)
// exactly when ParseInstance rejects its spec; otherwise /plan answers
// 200 with the Planner's cycles in the same order, the same size and the
// Planner's signature, and the Planner's covering passes Verify.
func FuzzPlanMatchesPlanner(f *testing.F) {
	s := New(Config{})
	f.Cleanup(s.Close)
	h := s.Handler()
	p := cyclecover.NewPlanner()
	for _, seed := range []struct {
		n, kind uint8
		a, b    uint16
	}{
		{4, 0, 0, 0},  // K_7
		{7, 0, 0, 0},  // K_10
		{2, 1, 1, 0},  // 2K_5
		{5, 2, 3, 0},  // hub:3 on C_8
		{0, 2, 4, 0},  // hub:4 on C_3: off the ring
		{9, 3, 0, 0},  // neighbors on C_12
		{6, 4, 4, 7},  // random:0.4:7 on C_9
		{1, 4, 0, 1},  // random:0.0:1 on C_4: empty demand
		{7, 5, 0, 0},  // Petersen
		{3, 5, 0, 0},  // Petersen on C_6: wrong n
		{5, 6, 4, 0},  // prism:4
		{9, 7, 0, 11}, // cubic:11 on 12 vertices
		{4, 7, 0, 2},  // cubic:2 on 7 vertices: odd
	} {
		f.Add(seed.n, seed.kind, seed.a, seed.b)
	}
	f.Fuzz(func(t *testing.T, nb, kind uint8, a, b uint16) {
		n, spec := planSpec(nb, kind, a, b)
		in, perr := cyclecover.ParseInstance(n, spec)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/plan?n=%d&demand=%s", n, url.QueryEscape(spec)), nil))
		if perr != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("n=%d %s: ParseInstance rejects it (%v), /plan answered %d: %s", n, spec, perr, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("n=%d %s: /plan answered %d: %s", n, spec, rec.Code, rec.Body)
		}
		var got planResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("n=%d %s: undecodable /plan answer: %v", n, spec, err)
		}
		cv, err := p.CoverInstance(context.Background(), in)
		if err != nil {
			t.Fatalf("n=%d %s: Planner: %v", n, spec, err)
		}
		if err := cyclecover.Verify(cv, in); err != nil {
			t.Fatalf("n=%d %s: Planner covering fails Verify: %v", n, spec, err)
		}
		want := make([][]int, 0, len(cv.Cycles))
		for _, c := range cv.Cycles {
			want = append(want, c.Vertices())
		}
		if !slices.EqualFunc(got.Cycles, want, slices.Equal[[]int]) {
			t.Fatalf("n=%d %s: /plan cycles differ from the Planner's:\n/plan:   %v\nPlanner: %v", n, spec, got.Cycles, want)
		}
		if got.Size != cv.Size() {
			t.Fatalf("n=%d %s: /plan size %d, Planner size %d", n, spec, got.Size, cv.Size())
		}
		if sig := p.SignatureOf(in); got.Signature != sig {
			t.Fatalf("n=%d %s: /plan signature %q, Planner signature %q", n, spec, got.Signature, sig)
		}
	})
}

// FuzzSimulateMatchesPlanner is the differential check of /simulate
// against the library: GET /simulate on the HTTP handler and
// Planner.Simulate must agree on every request. A request is rejected
// (400) exactly when ParseInstance rejects its spec, its host is
// general, or k or sample lies outside the service bounds; otherwise
// /simulate answers 200 with the Planner's signature and the sweep
// report Planner.Simulate gives under the service's scenario cap.
func FuzzSimulateMatchesPlanner(f *testing.F) {
	s := New(Config{})
	f.Cleanup(s.Close)
	h := s.Handler()
	p := cyclecover.NewPlanner()
	for _, seed := range []struct {
		n, kind uint8
		a, b    uint16
		k       int8
		sample  int16
		seed    int64
	}{
		{8, 0, 0, 0, 1, 512, 0},  // K_11, every single failure
		{6, 0, 0, 0, 2, 77, 99},  // K_9, double failures: sample and seed ignored
		{3, 0, 0, 0, 3, 512, 5},  // K_6, C(6,3) = 20 enumerated
		{13, 1, 1, 0, 3, 40, 7},  // 2K_16, C(16,3) = 560 sampled
		{5, 2, 3, 0, 4, 100, -2}, // hub:3 on C_8, C(8,4) = 70 enumerated
		{9, 4, 3, 5, 6, 8192, 1}, // random:0.3:5 on C_12, every 6-failure
		{1, 4, 0, 1, 2, 512, 0},  // random:0.0:1 on C_4: empty demand
		{0, 2, 4, 0, 1, 512, 0},  // hub:4 on C_3: off the ring
		{7, 5, 0, 0, 1, 512, 0},  // Petersen: general
		{4, 0, 0, 0, 0, 512, 0},  // k = 0
		{4, 0, 0, 0, 7, 512, 0},  // k above the service cap
		{0, 0, 0, 0, 4, 512, 0},  // k above the link count of C_3
		{4, 0, 0, 0, 3, 0, 0},    // sample = 0
		{4, 0, 0, 0, 3, 8193, 0}, // sample above the cap
	} {
		f.Add(seed.n, seed.kind, seed.a, seed.b, seed.k, seed.sample, seed.seed)
	}
	f.Fuzz(func(t *testing.T, nb, kind uint8, a, b uint16, k int8, sample int16, seed int64) {
		n, spec := planSpec(nb, kind, a, b)
		query := fmt.Sprintf("n=%d&demand=%s&k=%d&sample=%d&seed=%d", n, url.QueryEscape(spec), k, sample, seed)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/simulate?"+query, nil))
		in, perr := cyclecover.ParseInstance(n, spec)
		inBounds := k >= 1 && int(k) <= min(MaxSweepK, n) && sample >= 1 && int(sample) <= MaxSweepSample
		if perr != nil || in.IsGeneral() || !inBounds {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: want 400 (parse error %v, general %v, in bounds %v), /simulate answered %d: %s",
					query, perr, perr == nil && in.IsGeneral(), inBounds, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: /simulate answered %d: %s", query, rec.Code, rec.Body)
		}
		var got struct {
			Signature string                 `json:"signature"`
			Sweep     cyclecover.SweepResult `json:"sweep"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: undecodable /simulate answer: %v", query, err)
		}
		sim, err := p.Simulate(context.Background(), in, cyclecover.SweepOptions{
			K: int(k), Sample: int(sample), Seed: seed, MaxScenarios: MaxSweepScenarios,
		})
		if err != nil {
			t.Fatalf("%s: Planner: %v", query, err)
		}
		if !reflect.DeepEqual(got.Sweep, sim.Sweep) {
			t.Fatalf("%s: /simulate sweep differs from the Planner's:\n/simulate: %+v\nPlanner:   %+v", query, got.Sweep, sim.Sweep)
		}
		if sig := p.SignatureOf(in); got.Signature != sig {
			t.Fatalf("%s: /simulate signature %q, Planner signature %q", query, got.Signature, sig)
		}
	})
}
