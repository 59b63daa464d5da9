package construct

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// deltaFixture is the canonical patch scenario the alloc pin and the
// benchmark share: an optimal covering of K_n with its last cycle
// deleted (the "surviving parent" after a failure took a cycle out),
// patched back into a full covering of K_n within the cold budget ρ(n).
func deltaFixture(tb testing.TB, n int) (ring.Ring, *cover.Covering, *graph.Graph, DeltaOptions) {
	tb.Helper()
	res, err := AllToAllCtx(context.Background(), n)
	if err != nil {
		tb.Fatal(err)
	}
	parent := res.Covering
	if parent.Size() != cover.Rho(n) {
		tb.Fatalf("K_%d base covering has %d cycles, want ρ = %d", n, parent.Size(), cover.Rho(n))
	}
	parent.Cycles = parent.Cycles[:len(parent.Cycles)-1]
	opts := DeltaOptions{
		Budget:  cover.Rho(n),
		Scratch: NewDeltaScratch(),
	}
	return parent.Ring, parent, graph.Complete(n), opts
}

// TestDeltaRepairAllocsFlatInN pins the warm patch's allocation profile:
// with a warm DeltaScratch the Θ(n²) tallies are reused, so the
// allocations left — the returned covering and the cycles greedy adds —
// do not grow with the ring.
func TestDeltaRepairAllocsFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: sync.Pool drops Put values under -race, so pooled tallies re-allocate")
	}
	ctx := context.Background()
	var first float64
	for i, n := range []int{12, 31, 101} {
		r, parent, demand, opts := deltaFixture(t, n)
		if _, ok := DeltaRepair(ctx, r, parent, demand, opts); !ok {
			t.Fatalf("n=%d: warm-up patch failed", n)
		}
		avg := testing.AllocsPerRun(5, func() {
			if _, ok := DeltaRepair(ctx, r, parent, demand, opts); !ok {
				t.Errorf("n=%d: patch stopped answering between runs", n)
			}
		})
		t.Logf("n=%d: %.0f allocs/op", n, avg)
		if i == 0 {
			first = avg
		} else if avg > first {
			t.Errorf("n=%d: %.0f allocs/op, more than the %.0f at n=12", n, avg, first)
		}
	}
}

// TestDeltaRepairResultValid checks the fixture end to end: the patch
// verifies against the demand and needs no more than the cold budget.
func TestDeltaRepairResultValid(t *testing.T) {
	r, parent, demand, opts := deltaFixture(t, 12)
	cv, ok := DeltaRepair(context.Background(), r, parent, demand, opts)
	if !ok {
		t.Fatal("patch did not answer")
	}
	if cv.Size() > opts.Budget {
		t.Fatalf("patched size %d, above budget %d", cv.Size(), opts.Budget)
	}
	if err := cover.Verify(cv, demand); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaRepairScratchResultDetaches pins the aliasing rule in the
// DeltaRepair doc: the result has its own Cycles slice, so dropping
// cycles from it leaves the parent intact, and it does not live in the
// scratch, so it survives the scratch's next use.
func TestDeltaRepairScratchResultDetaches(t *testing.T) {
	const n = 12
	r := ring.MustNew(n)
	parent := Even(n)
	before := parent.Clone()
	demand := graph.Complete(n)
	demand.RemoveEdge(0, 1)
	opts := DeltaOptions{Budget: cover.Rho(n), Scratch: NewDeltaScratch()}
	cv, ok := DeltaRepair(context.Background(), r, parent, demand, opts)
	if !ok {
		t.Fatal("patch did not answer")
	}
	cv.Cycles = append(cv.Cycles[:0], cv.Cycles[len(cv.Cycles)-1])
	if err := cover.VerifyOptimal(parent); err != nil {
		t.Fatalf("parent corrupted by dropping cycles from the result: %v", err)
	}
	for i := range before.Cycles {
		if !parent.Cycles[i].Equal(before.Cycles[i]) {
			t.Fatalf("parent cycle %d changed: %v, was %v", i, parent.Cycles[i], before.Cycles[i])
		}
	}
	kept, ok := DeltaRepair(context.Background(), r, parent, demand, opts)
	if !ok {
		t.Fatal("second patch did not answer")
	}
	if _, ok := DeltaRepair(context.Background(), r, parent, graph.Complete(n), opts); !ok {
		t.Fatal("third patch did not answer")
	}
	if err := cover.Verify(kept, demand); err != nil {
		t.Fatalf("result corrupted by scratch reuse: %v", err)
	}
}

// TestDeltaBudgetPrediction pins the cold-cost predictor, λ·ρ(n) for
// every uniform class (at even n ≥ 22 too, where the even path used to
// fall short of ρ), and its refusal elsewhere.
func TestDeltaBudgetPrediction(t *testing.T) {
	for _, n := range []int{6, 9, 12, 15, 22, 24, 64, 101, 1024} {
		for _, lam := range []int{1, 3} {
			if got, ok := DeltaBudget(graph.LambdaComplete(n, lam)); !ok || got != lam*cover.Rho(n) {
				t.Errorf("DeltaBudget(%dK_%d) = (%d, %v), want (%d, true)", lam, n, got, ok, lam*cover.Rho(n))
			}
		}
	}
	lam := graph.Complete(9)
	lam.AddEdgeMulti(0, 1, 1) // no longer uniform
	if _, ok := DeltaBudget(lam); ok {
		t.Error("DeltaBudget accepted a non-uniform demand")
	}
}
