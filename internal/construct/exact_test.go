package construct

import (
	"context"
	"sync"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
)

// TestExactFindsRhoCoverings verifies constructively, by independent
// search, that coverings of size ρ(n) exist for all small n — both
// parities. (Beyond n = 9 pure branch-and-bound thrashes; the closed
// forms take over there, exercised by TestEvenSmallIsOptimal.)
func TestExactFindsRhoCoverings(t *testing.T) {
	for n := 4; n <= 9; n++ {
		cv, ok := ExactOptimal(context.Background(), n, 4_000_000)
		if !ok {
			t.Fatalf("n=%d: no covering found at budget ρ=%d", n, cover.Rho(n))
		}
		if err := cover.VerifyOptimal(cv); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestExactProvesLowerBounds certifies ρ(n)−1 infeasibility by exhaustive
// search with unbounded cycle length — the computational proof that the
// paper's values are optimal, including the +1 refinement for n = 8
// (p = 4 even, arc-length bound p²/2 = 8 < ρ = 9).
func TestExactProvesLowerBounds(t *testing.T) {
	for _, n := range []int{4, 5, 6, 7, 8} {
		out := ExactCtx(context.Background(), n, ExactOptions{Budget: cover.Rho(n) - 1, MaxLen: 0, NodeLimit: 30_000_000})
		if !out.Complete {
			t.Fatalf("n=%d: search hit node limit after %d nodes", n, out.Nodes)
		}
		if out.Covering != nil {
			t.Fatalf("n=%d: found covering of size %d < ρ = %d — theorem contradicted!",
				n, out.Covering.Size(), cover.Rho(n))
		}
	}
}

func TestExactRespectsMaxLen(t *testing.T) {
	out := ExactCtx(context.Background(), 7, ExactOptions{Budget: cover.Rho(7), MaxLen: 3, NodeLimit: 2_000_000})
	if out.Covering != nil {
		for _, c := range out.Covering.Cycles {
			if c.Len() > 3 {
				t.Fatalf("MaxLen 3 violated by %v", c)
			}
		}
	}
}

func TestExactNodeLimitInterrupts(t *testing.T) {
	out := ExactCtx(context.Background(), 12, ExactOptions{Budget: cover.Rho(12), MaxLen: 4, NodeLimit: 10})
	if out.Complete {
		t.Error("10-node search of n=12 cannot be complete")
	}
	if out.Covering != nil {
		t.Error("no solution reachable in 10 nodes")
	}
}

// TestExactConcurrentCallers runs several searches at once, each on its
// own state; with -race this is the check that concurrent callers share
// nothing mutable.
func TestExactConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			out := ExactCtx(context.Background(), n, ExactOptions{Budget: cover.Rho(n), MaxLen: 4, NodeLimit: 4_000_000})
			if out.Covering == nil {
				t.Errorf("n=%d: search found no covering at ρ", n)
				return
			}
			if err := cover.VerifyOptimal(out.Covering); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		}(6 + i)
	}
	wg.Wait()
}

func TestExactZeroBudget(t *testing.T) {
	out := ExactCtx(context.Background(), 5, ExactOptions{Budget: 0, MaxLen: 4})
	if out.Covering != nil || !out.Complete {
		t.Error("budget 0: want complete failure")
	}
}

func TestExactSolutionIsDRCVerified(t *testing.T) {
	cv, ok := ExactOptimal(context.Background(), 6, 2_000_000)
	if !ok {
		t.Fatal("n=6 exact failed")
	}
	for _, c := range cv.Cycles {
		if err := cover.VerifyDRC(cv.Ring, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := cv.Covers(graph.Complete(6)); err != nil {
		t.Fatal(err)
	}
}
