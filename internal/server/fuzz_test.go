package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
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
		body, err := json.Marshal(verifyRequest{N: n, Cycles: resp.Cycles, Demand: demand})
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
