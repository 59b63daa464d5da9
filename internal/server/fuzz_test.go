package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
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
