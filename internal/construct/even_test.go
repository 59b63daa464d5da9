package construct

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
)

// TestEvenSmallIsOptimal is the Theorem 2 check: for every even n from 4
// to 256, Even returns a valid covering of exactly ρ(n) = ⌈(p²+1)/2⌉
// cycles.
func TestEvenSmallIsOptimal(t *testing.T) {
	for n := 4; n <= 256; n += 2 {
		if err := cover.VerifyOptimal(Even(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestEvenLargeIsOptimal runs the Theorem 2 check on both residues near
// 512 and at the top of the daemon's range (server.MaxRingSize = 1024),
// where each step builds on hundreds of thousands of cycles. The race
// detector multiplies its cost, so it is skipped there and under -short.
func TestEvenLargeIsOptimal(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("large even rings: skipped under -short and -race")
	}
	for _, n := range []int{510, 512, 1022, 1024} {
		if err := cover.VerifyOptimal(Even(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestEvenCallsShareNothing: the n ≡ 0 (mod 4) step relabels the smaller
// cover in place, so each call must build its own; mutating one result
// leaves the next call's intact.
func TestEvenCallsShareNothing(t *testing.T) {
	a := Even(12)
	for _, c := range a.Cycles {
		vs := c.Vertices()
		vs[0] = vs[len(vs)-1]
	}
	a.Cycles = a.Cycles[:1]
	if err := cover.VerifyOptimal(Even(12)); err != nil {
		t.Fatalf("Even(12) after mutating an earlier result: %v", err)
	}
}

func TestEvenN4MatchesPaperExample(t *testing.T) {
	cv := Even(4)
	if cv.Size() != 3 {
		t.Fatalf("Even(4): size %d, want 3", cv.Size())
	}
	if err := cover.Verify(cv, graph.Complete(4)); err != nil {
		t.Fatal(err)
	}
	want := []string{"(0,1,2,3)", "(0,1,3)", "(0,2,3)"}
	for i, c := range cv.Cycles {
		if c.String() != want[i] {
			t.Errorf("Even(4) cycle %d = %v, want %s", i, c, want[i])
		}
	}
}

func TestEvenPanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Even(7): want panic")
		}
	}()
	Even(7)
}

func TestAllToAllDispatch(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6, 9, 10, 22} {
		res, err := AllToAllCtx(context.Background(), n)
		if err != nil {
			t.Fatalf("AllToAll(%d): %v", n, err)
		}
		if err := cover.VerifyOptimal(res.Covering); err != nil {
			t.Fatalf("AllToAll(%d): %v", n, err)
		}
		want := MethodOdd
		if n%2 == 0 {
			want = MethodEven
		}
		if res.Method != want || !res.Optimal {
			t.Errorf("AllToAll(%d): method %v optimal %v, want %v true", n, res.Method, res.Optimal, want)
		}
	}
	if _, err := AllToAllCtx(context.Background(), 2); err == nil {
		t.Error("AllToAll(2): want error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AllToAllCtx(ctx, 10); err != context.Canceled {
		t.Errorf("AllToAll(10) under a cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestEvenCompositionVsPaper pins how the constructed compositions
// relate to the ones the paper states. The counts (= ρ) match. The mix
// differs: n ≡ 2 (mod 4) has q+1 triangles, 2q²+1 quads and q−1
// five-cycles for n = 4q+2, and n ≡ 0 (mod 4) gains p quads and one
// triangle over n−2 = 2p. The slot total Σ|C| equals the stated
// composition's at n ≡ 2 and exceeds it by one at n ≡ 0.
func TestEvenCompositionVsPaper(t *testing.T) {
	for n := 6; n <= 64; n += 2 {
		cv := Even(n)
		thm, ok := cover.TheoremComposition(n)
		if !ok {
			t.Fatalf("n=%d: no stated composition", n)
		}
		if cv.Size() != thm.Total() {
			t.Errorf("n=%d: size %d vs theorem total %d", n, cv.Size(), thm.Total())
		}
		comp := cv.Composition()
		if n%4 == 2 {
			q := (n - 2) / 4
			if comp[3] != q+1 || comp[4] != 2*q*q+1 || comp[5] != q-1 {
				t.Errorf("n=%d: composition %v, want %d×C3 %d×C4 %d×C5", n, comp, q+1, 2*q*q+1, q-1)
			}
		} else {
			p := (n - 2) / 2
			prev := Even(n - 2).Composition()
			if comp[3] != prev[3]+1 || comp[4] != prev[4]+p || comp[5] != prev[5] {
				t.Errorf("n=%d: composition %v, want %v plus %d×C4 and one C3", n, comp, prev, p)
			}
		}
		if len(comp) > 3 {
			t.Errorf("n=%d: cycle lengths %v beyond C3–C5", n, comp)
		}
		want := thm.Slots()
		if n%4 == 0 {
			want++
		}
		if got := cv.TotalVertices(); got != want {
			t.Errorf("n=%d: Σ|C| = %d, want %d (stated composition %v)", n, got, want, thm)
		}
		if n <= 12 {
			t.Logf("n=%d: constructed %v, paper states %v", n, comp, thm)
		}
	}
}
