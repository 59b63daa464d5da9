package construct

import (
	"context"
	"errors"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
)

// TestOddReproducesTheorem1 is the headline Theorem 1 check: for every odd
// n the construction is a valid DRC-covering of K_n with exactly
// ρ(n) = p(p+1)/2 cycles, split into p C3 and p(p−1)/2 C4.
func TestOddReproducesTheorem1(t *testing.T) {
	for n := 3; n <= 101; n += 2 {
		cv := Odd(n)
		if err := cover.VerifyOptimal(cv); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		p := (n - 1) / 2
		comp, _ := cover.TheoremComposition(n)
		if got := cv.NumTriangles(); got != comp.C3 {
			t.Errorf("n=%d: %d triangles, theorem says %d", n, got, comp.C3)
		}
		if got := cv.NumQuads(); got != comp.C4 {
			t.Errorf("n=%d: %d quads, theorem says %d", n, got, comp.C4)
		}
		if got := cv.Size(); got != p*(p+1)/2 {
			t.Errorf("n=%d: size %d, want p(p+1)/2 = %d", n, got, p*(p+1)/2)
		}
	}
}

// TestOddIsPartition verifies the sharper property forced by the tight
// lower bound: the optimal odd covering covers every pair exactly once
// (zero slack) and routes every pair along a short arc.
func TestOddIsPartition(t *testing.T) {
	for n := 3; n <= 61; n += 2 {
		cv := Odd(n)
		if slack := cv.DuplicateSlots(); slack != 0 {
			t.Errorf("n=%d: slack %d, want partition", n, slack)
		}
		if cv.Slots() != cover.EdgeCount(n) {
			t.Errorf("n=%d: %d slots for %d edges", n, cv.Slots(), cover.EdgeCount(n))
		}
		s := cv.Summarize()
		if !s.ShortOnly {
			t.Errorf("n=%d: some pair routed the long way; bound tightness violated", n)
		}
	}
}

func TestOddBaseCase(t *testing.T) {
	cv := Odd(3)
	if cv.Size() != 1 || !cv.Cycles[0].IsTriangle() {
		t.Fatalf("Odd(3) = %v, want single triangle", cv.Cycles)
	}
	if err := cover.Verify(cv, graph.Complete(3)); err != nil {
		t.Fatal(err)
	}
}

func TestOddKnownN5(t *testing.T) {
	cv := Odd(5)
	if cv.Size() != 3 || cv.NumTriangles() != 2 || cv.NumQuads() != 1 {
		t.Fatalf("Odd(5): %v, want 2×C3 + 1×C4", cv.Summarize())
	}
}

func TestOddUsesOnlyC3C4(t *testing.T) {
	for n := 3; n <= 41; n += 2 {
		for _, c := range Odd(n).Cycles {
			if c.Len() > 4 {
				t.Fatalf("n=%d: cycle %v longer than C4", n, c)
			}
		}
	}
}

func TestOddPanicsOnEven(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Odd(6): want panic")
		}
	}()
	Odd(6)
}

func TestOddDeterministic(t *testing.T) {
	a, b := Odd(13), Odd(13)
	if a.Size() != b.Size() {
		t.Fatal("non-deterministic size")
	}
	for i := range a.Cycles {
		if !a.Cycles[i].Equal(b.Cycles[i]) {
			t.Fatalf("cycle %d differs between runs", i)
		}
	}
}

// TestOddMatchesExactSolver cross-validates the construction against the
// independent exact solver on small rings: both must land on ρ(n).
func TestOddMatchesExactSolver(t *testing.T) {
	for _, n := range []int{5, 7, 9} {
		cv := Odd(n)
		exact, ok := ExactOptimal(context.Background(), n, 4_000_000)
		if !ok {
			t.Fatalf("n=%d: exact solver failed to find ρ-sized covering", n)
		}
		if exact.Size() != cv.Size() {
			t.Errorf("n=%d: exact %d vs construction %d", n, exact.Size(), cv.Size())
		}
		if err := cover.VerifyOptimal(exact); err != nil {
			t.Errorf("n=%d: exact solution invalid: %v", n, err)
		}
	}
}

// TestAllToAllCtxCancelledOdd: the odd closed form does not poll ctx, so
// AllToAllCtx checks it around the build. A caller whose ctx has fired
// gets the context's error, never a covering; at n = 1023 the build
// would otherwise cost tens of milliseconds, and the cache would go on
// to verify it.
func TestAllToAllCtxCancelledOdd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AllToAllCtx(ctx, 1023)
	if !errors.Is(err, context.Canceled) || res.Covering != nil {
		t.Fatalf("AllToAllCtx(cancelled, 1023): covering %v, err = %v; want no covering and context.Canceled",
			res.Covering != nil, err)
	}
}
