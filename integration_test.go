package cyclecover

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/routing"
)

// These are the cross-module property and integration tests: end-to-end
// pipelines and invariants that span packages.

// TestEndToEndPipeline runs the full stack — construct → verify → plan →
// failure sweep → capacity — for a spread of sizes of both parities.
func TestEndToEndPipeline(t *testing.T) {
	for _, n := range []int{4, 5, 8, 9, 13, 16, 22, 25} {
		cv, _, err := CoverAllToAll(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		in := AllToAll(n)
		if err := Verify(cv, in); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		nw, err := PlanWDM(cv, in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sweep, err := NewSimulator(nw).SweepCtx(context.Background(), SweepOptions{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !sweep.AllRestored {
			t.Fatalf("n=%d: single-failure survivability violated", n)
		}
		capRep, err := nw.Capacity()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(capRep.Overfilled) != 0 {
			t.Fatalf("n=%d: working channel overfilled", n)
		}
	}
}

// TestPropertyOddPartition: for random odd n, the Theorem 1 covering is a
// partition into C3/C4 routed along short arcs with count and composition
// from the closed forms.
func TestPropertyOddPartition(t *testing.T) {
	f := func(seed uint8) bool {
		n := 3 + 2*(int(seed)%40) // odd in [3, 81]
		cv := construct.Odd(n)
		comp, _ := cover.TheoremComposition(n)
		return cv.Size() == cover.Rho(n) &&
			cv.NumTriangles() == comp.C3 &&
			cv.NumQuads() == comp.C4 &&
			cv.DuplicateSlots() == 0 &&
			cv.Summarize().ShortOnly &&
			cover.Verify(cv, graph.Complete(n)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyVerifierRejectsMutations: deleting any single cycle from an
// optimal odd covering (a partition) must break coverage — the verifier
// is not fooled by near-misses.
func TestPropertyVerifierRejectsMutations(t *testing.T) {
	f := func(seed uint8) bool {
		n := 5 + 2*(int(seed)%15)
		cv := construct.Odd(n)
		victim := int(seed) % cv.Size()
		mut := cv.Clone()
		mut.Cycles = append(mut.Cycles[:victim:victim], mut.Cycles[victim+1:]...)
		return cover.Verify(mut, graph.Complete(n)) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyCycleRoutingAgreement: for random cycles, the structural
// ring-order criterion, the canonical routing and the explicit DRC
// verifier agree.
func TestPropertyCycleRoutingAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		r := ring.MustNew(n)
		k := 3 + rng.Intn(min(n-2, 8))
		verts := rng.Perm(n)[:k]
		c := cover.MustCycle(r, verts...)
		if cover.VerifyDRC(r, c) != nil {
			return false
		}
		tour := routing.Tour(c.Vertices())
		if !tour.IsRingOrdered(r) {
			return false
		}
		routes, ok := tour.CanonicalRouting(r)
		return ok && routing.Disjoint(r, routes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyGreedyAlwaysValid: random sparse demands over random rings
// always yield verified coverings at or above the instance bound.
func TestPropertyGreedyAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(14)
		r := ring.MustNew(n)
		demand := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(4) == 0 {
					demand.AddEdge(u, v)
				}
			}
		}
		if demand.M() == 0 {
			return true
		}
		cv, err := construct.GreedyCtx(context.Background(), r, demand)
		return err == nil && cover.Verify(cv, demand) == nil &&
			cv.Size() >= cover.InstanceLowerBound(r, demand)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCLIRoundTripJSON: a covering serialised the way cmd/cyclecover
// emits it decodes back to an equivalent verified covering.
func TestCLIRoundTripJSON(t *testing.T) {
	cv, _, err := CoverAllToAll(10)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cv)
	if err != nil {
		t.Fatal(err)
	}
	var back Covering
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := VerifyOptimalAllToAll(&back); err != nil {
		t.Fatal(err)
	}
}

// TestRhoMonotonicity: ρ is nondecreasing in n except at the odd→even
// steps where the diameter class makes even rings cheaper per pair...
// in fact ρ(2p) ≤ ρ(2p+1) and ρ(2p+1) ≥ ρ(2p); overall ρ(n+2) > ρ(n)
// within each parity class. Check both.
func TestRhoMonotonicity(t *testing.T) {
	for n := 3; n <= 300; n++ {
		if cover.Rho(n+2) <= cover.Rho(n) {
			t.Fatalf("ρ not increasing within parity at n=%d", n)
		}
	}
	for p := 2; p <= 150; p++ {
		if cover.Rho(2*p) > cover.Rho(2*p+1) {
			t.Fatalf("ρ(2p) should not exceed ρ(2p+1) at p=%d", p)
		}
	}
}
