package cyclecover

import (
	"context"
	"fmt"
	"testing"
)

// TestEveryDemandFamilyEndToEnd is the table-driven edge-case sweep: for
// every ring size the service accepts down at the small end, every demand
// spec family runs the full pipeline — parse, construct, independently
// verify, and plan the WDM layer — and the layers must agree with each
// other (subnetwork per cycle, every demand pair assigned).
func TestEveryDemandFamilyEndToEnd(t *testing.T) {
	specs := func(n int) []string {
		return []string{
			"alltoall",
			"lambda:2",
			"lambda:3",
			"hub:0",
			fmt.Sprintf("hub:%d", n-1),
			"neighbors",
			"random:0.3:5",
			"random:0.8:11",
			"random:0:1", // empty demand: still a valid (empty) plan
			"random:1:2", // clamp-saturated density: full K_n
		}
	}
	for n := 3; n <= 16; n++ {
		for _, spec := range specs(n) {
			t.Run(fmt.Sprintf("n=%d/%s", n, spec), func(t *testing.T) {
				in, err := ParseInstance(n, spec)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				cv, err := CoverInstance(context.Background(), in)
				if err != nil {
					t.Fatalf("cover: %v", err)
				}
				if err := Verify(cv, in); err != nil {
					t.Fatalf("verify: %v", err)
				}
				nw, err := PlanWDM(cv, in)
				if err != nil {
					t.Fatalf("plan: %v", err)
				}
				if len(nw.Subnets) != cv.Size() {
					t.Fatalf("%d subnets for %d cycles", len(nw.Subnets), cv.Size())
				}
				if got, want := len(nw.Assignment), in.Demand.DistinctEdges(); got != want {
					t.Fatalf("%d demand pairs assigned, want %d", got, want)
				}
			})
		}
	}
}

// TestNilInputsReturnErrors pins the hardening contract at the facade:
// zero-value instances and nil coverings — what error paths hand you —
// answer with errors, never panics.
func TestNilInputsReturnErrors(t *testing.T) {
	var zero Instance
	if zero.N() != 0 || zero.Requests() != 0 {
		t.Errorf("zero instance: N=%d requests=%d, want 0/0", zero.N(), zero.Requests())
	}
	if _, err := CoverInstance(context.Background(), zero); err == nil {
		t.Error("CoverInstance(zero): want error")
	}
	cv, _, err := CoverAllToAll(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(cv, zero); err == nil {
		t.Error("Verify against zero instance: want error")
	}
	if err := Verify(nil, AllToAll(5)); err == nil {
		t.Error("Verify(nil covering): want error")
	}
	if _, err := PlanWDM(nil, AllToAll(5)); err == nil {
		t.Error("PlanWDM(nil covering): want error")
	}
	if _, err := PlanWDM(cv, zero); err == nil {
		t.Error("PlanWDM against zero instance: want error")
	}

	// The cached facade must harden the same way — the cycled service
	// feeds it whatever the parser handed back next to an error.
	p := NewPlanner()
	if _, err := p.CoverInstance(context.Background(), zero); err == nil {
		t.Error("Planner.CoverInstance(zero): want error")
	}
	if _, err := p.PlanWDM(context.Background(), zero); err == nil {
		t.Error("Planner.PlanWDM(zero): want error")
	}
	// And the error path must not poison the cache.
	if st := p.CacheStats(); st.Coverings.Entries != 0 || st.Networks.Entries != 0 {
		t.Errorf("zero-value instance left cache entries: %+v", st)
	}
}

// TestParseInstanceErrorPathIsUsable: the Instance returned beside a
// parse error is a zero value; every facade entry point must reject it
// gracefully, mirroring how a careless HTTP caller would misuse it.
func TestParseInstanceErrorPathIsUsable(t *testing.T) {
	in, err := ParseInstance(9, "random:NaN:1")
	if err == nil {
		t.Fatal("NaN density must not parse")
	}
	if _, cerr := CoverInstance(context.Background(), in); cerr == nil {
		t.Error("covering the error-path instance: want error")
	}
	p := NewPlanner()
	if _, perr := p.PlanWDM(context.Background(), in); perr == nil {
		t.Error("planning the error-path instance: want error")
	}
}
