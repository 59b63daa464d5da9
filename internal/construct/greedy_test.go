package construct

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// mustGreedy runs GreedyCtx without a deadline, failing t on error.
func mustGreedy(t testing.TB, r ring.Ring, demand *graph.Graph) *cover.Covering {
	t.Helper()
	cv, err := GreedyCtx(context.Background(), r, demand)
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

func TestGreedyCoversAllToAll(t *testing.T) {
	for _, n := range []int{4, 5, 8, 11, 16, 21} {
		r := ring.MustNew(n)
		demand := graph.Complete(n)
		cv := mustGreedy(t, r, demand)
		if err := cover.Verify(cv, demand); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if cv.Size() < cover.LowerBound(n) {
			t.Fatalf("n=%d: greedy size %d below the lower bound %d — verifier bug",
				n, cv.Size(), cover.LowerBound(n))
		}
	}
}

func TestGreedyNeverWorseThanTrivial(t *testing.T) {
	// One cycle per pair is always achievable; greedy must beat it.
	for _, n := range []int{7, 10, 15} {
		cv := mustGreedy(t, ring.MustNew(n), graph.Complete(n))
		if cv.Size() >= cover.EdgeCount(n) {
			t.Errorf("n=%d: greedy %d not better than per-edge %d", n, cv.Size(), cover.EdgeCount(n))
		}
	}
}

func TestGreedyRandomInstancesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(16)
		r := ring.MustNew(n)
		demand := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					demand.AddEdge(u, v)
				}
			}
		}
		if demand.M() == 0 {
			continue
		}
		cv := mustGreedy(t, r, demand)
		if err := cover.Verify(cv, demand); err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
		if lb := cover.InstanceLowerBound(r, demand); cv.Size() < lb {
			t.Fatalf("trial %d: size %d below instance bound %d", trial, cv.Size(), lb)
		}
	}
}

func TestGreedyMultigraphDemand(t *testing.T) {
	r := ring.MustNew(7)
	demand := graph.LambdaComplete(7, 2)
	cv := mustGreedy(t, r, demand)
	if err := cover.Verify(cv, demand); err != nil {
		t.Fatalf("2K7: %v", err)
	}
}

func TestGreedyEmptyDemand(t *testing.T) {
	cv := mustGreedy(t, ring.MustNew(6), graph.New(6))
	if cv.Size() != 0 {
		t.Errorf("empty demand: %d cycles, want 0", cv.Size())
	}
}

func TestGreedySingleRequest(t *testing.T) {
	r := ring.MustNew(9)
	demand := graph.New(9)
	demand.AddEdge(2, 6)
	cv := mustGreedy(t, r, demand)
	if err := cover.Verify(cv, demand); err != nil {
		t.Fatal(err)
	}
	if cv.Size() != 1 {
		t.Errorf("single request: %d cycles, want 1", cv.Size())
	}
}

// TestGreedySmallerDemandThanRing pins an input class the map-era greedy
// handled and the dense residual must keep handling: a demand graph on
// fewer vertices than the ring. Cycle growing probes ring vertices
// beyond the demand's range; the residual bookkeeping must answer "not
// demanded" there, not range-panic.
func TestGreedySmallerDemandThanRing(t *testing.T) {
	r := ring.MustNew(8)
	demand := graph.New(5)
	demand.AddEdge(0, 4)
	demand.AddEdge(1, 3)
	cv := mustGreedy(t, r, demand)
	if err := cover.Verify(cv, demand); err != nil {
		t.Fatalf("covering invalid: %v", err)
	}
}

// TestGreedyRejectsDemandOutsideRing pins that a request at a vertex
// beyond the ring is an error, not a panic on a wrapped label, while a
// larger demand graph whose extra vertices carry no request is planned.
func TestGreedyRejectsDemandOutsideRing(t *testing.T) {
	r := ring.MustNew(5)
	demand := graph.New(8)
	demand.AddEdge(1, 3)
	if cv := mustGreedy(t, r, demand); cv.Size() != 1 || !cv.Cycles[0].CoversPair(1, 3) {
		t.Fatalf("cycles %v, want one covering {1,3}", cv.Cycles)
	}
	demand.AddEdge(0, 6)
	if _, err := GreedyCtx(context.Background(), r, demand); err == nil {
		t.Fatal("request {0,6} on C_5: want an error")
	}
}

func TestEliminateRedundant(t *testing.T) {
	r := ring.MustNew(6)
	demand := graph.New(6)
	demand.AddEdge(0, 1)
	demand.AddEdge(1, 2)
	cv := cover.NewCovering(r)
	cv.Add(
		cover.MustCycle(r, 0, 1, 2),    // covers both requests
		cover.MustCycle(r, 0, 1, 2, 3), // redundant: {0,1} and {1,2} already covered
	)
	removed := EliminateRedundant(cv, demand)
	if removed != 1 || cv.Size() != 1 {
		t.Fatalf("removed %d, size %d; want 1, 1", removed, cv.Size())
	}
	if err := cover.Verify(cv, demand); err != nil {
		t.Fatal(err)
	}
}

func TestEliminateRedundantKeepsMultiplicity(t *testing.T) {
	r := ring.MustNew(5)
	demand := graph.New(5)
	demand.AddEdgeMulti(0, 1, 2)
	cv := cover.NewCovering(r)
	cv.Add(cover.MustCycle(r, 0, 1, 2), cover.MustCycle(r, 0, 1, 3))
	if removed := EliminateRedundant(cv, demand); removed != 0 {
		t.Fatalf("both cycles needed for multiplicity 2, removed %d", removed)
	}
}

func TestEliminateRedundantNoopOnOptimal(t *testing.T) {
	cv := Odd(9)
	if removed := EliminateRedundant(cv, graph.Complete(9)); removed != 0 {
		t.Errorf("optimal covering had %d redundant cycles", removed)
	}
}

func TestLambda(t *testing.T) {
	res, err := LambdaCtx(context.Background(), 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := cover.Verify(res.Covering, graph.LambdaComplete(7, 3)); err != nil {
		t.Fatal(err)
	}
	if res.Covering.Size() != 3*cover.Rho(7) {
		t.Errorf("size %d, want 3ρ(7) = %d", res.Covering.Size(), 3*cover.Rho(7))
	}
	if _, err := LambdaCtx(context.Background(), 7, 0); err == nil {
		t.Error("lambda 0: want error")
	}
}

// BenchmarkGreedy times the greedy constructor on a dense random demand
// at n = 101 and on the hub at the largest ring the service admits, and
// reports residual probes per call: the residual reads made through
// need by the distance cursors and the candidate scoring, a
// deterministic figure that cmd/benchgate caps. A cursor or scoring loop
// that went back to reading every pair slot per cycle through need
// fails the gate; a read that bypasses need is not counted.
func BenchmarkGreedy(b *testing.B) {
	for _, bc := range []struct {
		n    int
		spec string
	}{{101, "random:0.5:1"}, {1023, "hub:0"}} {
		in, err := instance.Parse(bc.n, bc.spec)
		if err != nil {
			b.Fatal(err)
		}
		r := ring.MustNew(bc.n)
		b.Run(fmt.Sprintf("n=%d/%s", bc.n, bc.spec), func(b *testing.B) {
			gs := &greedyScratch{}
			probes := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gs.cover(context.Background(), r, in.Demand); err != nil {
					b.Fatal(err)
				}
				probes += gs.probes
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
		})
	}
}
