package construct

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
)

// mustEven runs EvenCtx without a deadline, failing t on error.
func mustEven(t testing.TB, n int) (*cover.Covering, bool) {
	t.Helper()
	cv, opt, err := EvenCtx(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	return cv, opt
}

// TestEvenSmallIsOptimal is the Theorem 2 check on the search range: for
// even n ≤ searchEvenLimit the constructor returns a valid covering of
// exactly ρ(n) = ⌈(p²+1)/2⌉ cycles.
func TestEvenSmallIsOptimal(t *testing.T) {
	for n := 4; n <= searchEvenLimit; n += 2 {
		cv, optimal := mustEven(t, n)
		if !optimal {
			t.Errorf("n=%d: want optimal construction in exact range", n)
		}
		if err := cover.VerifyOptimal(cv); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestEvenLayeredValidity checks the layered heuristic across a sweep of
// larger even n: always a valid covering, with the documented size
// ρ(n) + ⌈p/2⌉ − 1, using only C3/C4.
func TestEvenLayeredValidity(t *testing.T) {
	for n := 22; n <= 80; n += 2 {
		cv := layeredEven(n)
		if err := cover.Verify(cv, graph.Complete(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		p := n / 2
		wantSize := cover.Rho(n) + (p+1)/2 - 1
		if got := cv.Size(); got != wantSize {
			t.Errorf("n=%d: size %d, want ρ+⌈p/2⌉−1 = %d", n, got, wantSize)
		}
		if got := LayeredEvenSize(n); got != cv.Size() {
			t.Errorf("n=%d: LayeredEvenSize predicts %d, actual %d", n, got, cv.Size())
		}
		for _, c := range cv.Cycles {
			if c.Len() > 4 {
				t.Fatalf("n=%d: cycle %v longer than C4", n, c)
			}
		}
	}
}

func TestEvenGapNeverExceedsHalfP(t *testing.T) {
	// The heuristic's overhead ratio vanishes: (achieved−ρ)/ρ → 0.
	for n := 14; n <= 120; n += 2 {
		p := n / 2
		gap := LayeredEvenSize(n) - cover.Rho(n)
		if gap < 0 || gap > p/2 {
			t.Errorf("n=%d: gap %d outside [0, p/2]", n, gap)
		}
	}
}

func TestEvenN4MatchesPaperExample(t *testing.T) {
	cv, optimal := mustEven(t, 4)
	if !optimal || cv.Size() != 3 {
		t.Fatalf("Even(4): size %d optimal=%v, want 3, true", cv.Size(), optimal)
	}
	if err := cover.Verify(cv, graph.Complete(4)); err != nil {
		t.Fatal(err)
	}
}

func TestEvenCachedAndIsolated(t *testing.T) {
	a, _ := mustEven(t, 10)
	b, _ := mustEven(t, 10)
	if a.Size() != b.Size() {
		t.Fatal("cache must be deterministic")
	}
	// Mutating one result must not corrupt the cache.
	a.Cycles = a.Cycles[:1]
	c, _ := mustEven(t, 10)
	if c.Size() != b.Size() {
		t.Fatal("cache entry was mutated through a returned covering")
	}
}

func TestEvenPanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Even(7): want panic")
		}
	}()
	mustEven(t, 7)
}

func TestAllToAllDispatch(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6, 9, 10} {
		res, err := AllToAllCtx(context.Background(), n)
		if err != nil {
			t.Fatalf("AllToAll(%d): %v", n, err)
		}
		if err := cover.Verify(res.Covering, graph.Complete(n)); err != nil {
			t.Fatalf("AllToAll(%d): %v", n, err)
		}
		if n%2 == 1 && (res.Method != MethodOdd || !res.Optimal) {
			t.Errorf("AllToAll(%d): method %v optimal %v", n, res.Method, res.Optimal)
		}
		if n%2 == 0 && n <= searchEvenLimit && !res.Optimal {
			t.Errorf("AllToAll(%d): want optimal in search range", n)
		}
	}
	if _, err := AllToAllCtx(context.Background(), 2); err == nil {
		t.Error("AllToAll(2): want error")
	}
}

// TestEvenCompositionVsPaper records how the constructed compositions for
// small even n relate to the ones the paper states. The counts (= ρ) must
// match; the C3/C4 mix may legitimately differ since optimal coverings are
// not unique — we assert sizes and validity, and merely report the mix.
func TestEvenCompositionVsPaper(t *testing.T) {
	for n := 6; n <= 12; n += 2 {
		cv, _ := mustEven(t, n)
		comp, ok := cover.TheoremComposition(n)
		if !ok {
			continue
		}
		if cv.Size() != comp.Total() {
			t.Errorf("n=%d: size %d vs theorem total %d", n, cv.Size(), comp.Total())
		}
		t.Logf("n=%d: constructed %d×C3+%d×C4, paper states %v",
			n, cv.NumTriangles(), cv.NumQuads(), comp)
	}
}
