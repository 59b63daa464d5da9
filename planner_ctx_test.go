package cyclecover

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestPlanManyCtxCancelledSkipsSlots: a batch under an already-fired
// context launches nothing — every slot reports context.Canceled, in
// order, with no panic and no partial results.
func TestPlanManyCtxCancelledSkipsSlots(t *testing.T) {
	p := NewPlanner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ins := make([]Instance, 8)
	for i := range ins {
		ins[i] = AllToAll(5 + i)
	}
	out := p.PlanMany(ctx, ins)
	if len(out) != len(ins) {
		t.Fatalf("%d results for %d inputs", len(out), len(ins))
	}
	for i, r := range out {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("slot %d: err = %v, want Canceled", i, r.Err)
		}
		if r.Covering != nil || r.Network != nil {
			t.Errorf("slot %d: got results alongside cancellation", i)
		}
	}
}

// TestPlanManyCtxMidBatchCancel: cancelling mid-batch keeps completed
// slots, marks unstarted ones Canceled, and returns promptly rather than
// constructing the rest of the queue.
func TestPlanManyCtxMidBatchCancel(t *testing.T) {
	p := NewPlanner()
	// Warm a couple of cheap signatures so early slots can complete.
	if _, err := p.CoverInstance(context.Background(), AllToAll(7)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ins := make([]Instance, 64)
	for i := range ins {
		ins[i] = AllToAll(7) // warm: each slot is a cache hit
	}
	// Cancel concurrently with the batch; whatever slots ran before the
	// cancel completed, the rest must be skipped with Canceled and the
	// call must return. Both outcomes per slot are valid — what is pinned
	// is: no panic, full-length ordered output, and only (result XOR
	// Canceled) slots.
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	out := p.PlanMany(ctx, ins)
	if len(out) != len(ins) {
		t.Fatalf("%d results for %d inputs", len(out), len(ins))
	}
	for i, r := range out {
		switch {
		case r.Err == nil:
			if r.Covering == nil || r.Network == nil {
				t.Errorf("slot %d: success without results", i)
			}
		case errors.Is(r.Err, context.Canceled):
			if r.Covering != nil || r.Network != nil {
				t.Errorf("slot %d: cancelled slot carries results", i)
			}
		default:
			t.Errorf("slot %d: unexpected error %v", i, r.Err)
		}
	}
	// Slots run in input order: the successful ones form a prefix, and
	// every slot after the first cancelled one is cancelled too.
	for i := 1; i < len(out); i++ {
		if out[i].Err == nil && out[i-1].Err != nil {
			t.Errorf("slot %d succeeded after slot %d was cancelled", i, i-1)
		}
	}
}

// TestPlannerWithStrategy: a planner pinned to one strategy serves it
// for every call, and an unknown strategy surfaces as an error from the
// first plan, not a panic.
func TestPlannerWithStrategy(t *testing.T) {
	p := NewPlanner(WithStrategy("portfolio"))
	cv, err := p.CoverInstance(context.Background(), AllToAll(10))
	if err != nil {
		t.Fatal(err)
	}
	if cv.Size() != Rho(10) {
		t.Fatalf("portfolio planner: %d cycles, want ρ = %d", cv.Size(), Rho(10))
	}
	// Identical to the default pipeline (the portfolio determinism rule).
	dflt := NewPlanner()
	base, err := dflt.CoverInstance(context.Background(), AllToAll(10))
	if err != nil {
		t.Fatal(err)
	}
	if cv.Size() != base.Size() {
		t.Fatalf("portfolio %d cycles vs pipeline %d", cv.Size(), base.Size())
	}

	bad := NewPlanner(WithStrategy("annealing"))
	if _, err := bad.CoverInstance(context.Background(), AllToAll(8)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestPlannerCtxCancelDoesNotPoison: a planner call cancelled mid-
// construction leaves the cache clean for the next caller.
func TestPlannerCtxCancelDoesNotPoison(t *testing.T) {
	p := NewPlanner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.CoverInstance(ctx, AllToAll(11)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	cv, err := p.CoverInstance(context.Background(), AllToAll(11))
	if err != nil {
		t.Fatalf("cache poisoned: %v", err)
	}
	if cv.Size() != Rho(11) {
		t.Fatalf("recovered plan has %d cycles, want %d", cv.Size(), Rho(11))
	}
	for i := 0; i < 3; i++ {
		if _, err := p.PlanWDM(context.Background(), AllToAll(11)); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}
