package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// TestPlanGeneralEndToEnd is the committed HTTP acceptance path: POST
// /plan for the Petersen graph and the flower snarks plans a shortest
// cycle cover end to end, the response reports the scc objective, the
// length meets the literature bound 4/3·m + c, and the returned cycles
// round-trip through /verify.
func TestPlanGeneralEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		spec string
		n    int
		want int // provably optimal scc length
	}{
		{"petersen", 10, 21},
		{"flower:5", 20, 40},
		{"flower:7", 28, 56},
	} {
		resp, body := get(t, fmt.Sprintf("%s/plan?n=%d&demand=%s", ts.URL, tc.n, tc.spec))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.spec, resp.StatusCode, body)
		}
		var plan planResponse
		if err := json.Unmarshal(body, &plan); err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		in, err := instance.Parse(tc.n, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Length != tc.want {
			t.Fatalf("%s: length %d, want the optimum %d", tc.spec, plan.Length, tc.want)
		}
		if ub := cover.SnarkSCCUpperBound(in.Host.M()); plan.Length > ub {
			t.Fatalf("%s: length %d exceeds 4/3·m + c = %d", tc.spec, plan.Length, ub)
		}
		if plan.SCCLowerBound != cover.SCCLowerBound(in.Host) {
			t.Fatalf("%s: sccLowerBound %d, want %d", tc.spec, plan.SCCLowerBound, cover.SCCLowerBound(in.Host))
		}
		if plan.Rho != 0 {
			t.Fatalf("%s: rho %d reported for a general-topology plan", tc.spec, plan.Rho)
		}
		if plan.Wavelengths != 0 || plan.Cost != 0 {
			t.Fatalf("%s: WDM facts reported for a general-topology plan", tc.spec)
		}
		if !plan.Optimal {
			t.Fatalf("%s: optimal scc length reached but not claimed", tc.spec)
		}

		// Round-trip: the planned cycles must verify over the same demand.
		vresp, vbody := postJSON(t, ts.URL+"/verify", map[string]any{
			"n": tc.n, "demand": tc.spec, "cycles": plan.Cycles,
		})
		if vresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: verify status %d: %s", tc.spec, vresp.StatusCode, vbody)
		}
		var verdict verifyResponse
		if err := json.Unmarshal(vbody, &verdict); err != nil {
			t.Fatal(err)
		}
		if !verdict.Valid || verdict.Length != plan.Length {
			t.Fatalf("%s: verify verdict %+v does not match the plan", tc.spec, verdict)
		}

		// Warm request: same signature, served from memory.
		warm, _ := get(t, fmt.Sprintf("%s/plan?n=%d&demand=%s", ts.URL, tc.n, tc.spec))
		if warm.Header.Get("X-Cache") != "HIT" {
			t.Fatalf("%s: second plan request was not a cache hit", tc.spec)
		}
	}
}

// TestVerifyGeneralRejectsBadCover: a cover that skips a host edge (or
// walks a non-edge) must answer 422 with the verifier's reason, never
// 500.
func TestVerifyGeneralRejectsBadCover(t *testing.T) {
	_, ts := newTestServer(t)
	for name, cycles := range map[string][][]int{
		// Outer pentagon only: spokes and pentagram uncovered.
		"uncovered edges": {{0, 1, 2, 3, 4}},
		// {0,2} is not a Petersen edge.
		"non-edge walk": {{0, 1, 2}},
		// Too short.
		"two vertices": {{0, 1}},
	} {
		resp, body := postJSON(t, ts.URL+"/verify", map[string]any{
			"n": 10, "demand": "petersen", "cycles": cycles,
		})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422: %s", name, resp.StatusCode, body)
		}
		var verdict verifyResponse
		if err := json.Unmarshal(body, &verdict); err != nil {
			t.Fatal(err)
		}
		if verdict.Valid || verdict.Error == "" {
			t.Fatalf("%s: verdict %+v, want invalid with a reason", name, verdict)
		}
	}
}

// TestSimulateRejectsGeneral: failure simulation drills the WDM layer,
// which general-topology instances do not have — 400, not 500.
func TestSimulateRejectsGeneral(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/simulate?n=10&demand=petersen")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestPlanRejectsOversizedFamily: a fixed family far larger than n is a
// 400, answered without building the family's host.
func TestPlanRejectsOversizedFamily(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/plan?n=10&demand=prism:5000")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestPlanDeltaRejectsGeneralParent: delta replanning rebuilds children
// from demand provenance, which would lose a general parent's host — the
// endpoint must refuse cleanly.
func TestPlanDeltaRejectsGeneralParent(t *testing.T) {
	s, ts := newTestServer(t)
	// Plan the parent so the signature resolves in the cache.
	resp, body := get(t, ts.URL+"/plan?n=10&demand=petersen")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parent plan: status %d: %s", resp.StatusCode, body)
	}
	var plan planResponse
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	dresp, dbody := postJSON(t, ts.URL+"/plan/delta", map[string]any{
		"parent": plan.Signature, "delta": "add:0:2",
	})
	if dresp.StatusCode/100 != 4 {
		t.Fatalf("delta on general parent: status %d, want 4xx: %s", dresp.StatusCode, dbody)
	}
	_ = s
}
