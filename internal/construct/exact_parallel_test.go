package construct

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
)

// coveringVertexSets flattens a covering to comparable vertex sets
// (coverings out of Exact are canonicalized, so equal coverings compare
// equal slice-for-slice).
func coveringVertexSets(cv *cover.Covering) [][]int {
	if cv == nil {
		return nil
	}
	var out [][]int
	for _, c := range cv.Cycles {
		out = append(out, c.Vertices())
	}
	return out
}

// TestExactParallelMatchesSerial pins the determinism contract: the
// parallel fan-out must return exactly the covering the serial search
// finds — same sizes, same cycles — across small n of both parities.
// Parallelism is forced to 4 (not left at the GOMAXPROCS default, which
// degrades to the serial path on a single-core runner) so the fan-out
// machinery genuinely runs; the budget is generous because determinism
// is only promised for searches that finish within it. n = 10 is
// excluded: its search is ~3 s serial, too slow under -race for CI.
func TestExactParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{4, 5, 6, 7, 8, 9, 12} {
		opts := ExactOptions{Budget: cover.Rho(n), MaxLen: 4, NodeLimit: 40_000_000}
		serialOpts, parOpts := opts, opts
		serialOpts.Parallelism = 1
		parOpts.Parallelism = 4
		serial := ExactCtx(context.Background(), n, serialOpts)
		par := ExactCtx(context.Background(), n, parOpts)
		if serial.Complete != par.Complete {
			t.Fatalf("n=%d: complete serial=%v parallel=%v", n, serial.Complete, par.Complete)
		}
		if (serial.Covering == nil) != (par.Covering == nil) {
			t.Fatalf("n=%d: solution presence differs (serial=%v parallel=%v)",
				n, serial.Covering != nil, par.Covering != nil)
		}
		if !reflect.DeepEqual(coveringVertexSets(serial.Covering), coveringVertexSets(par.Covering)) {
			t.Fatalf("n=%d: parallel covering differs from serial:\nserial:   %v\nparallel: %v",
				n, coveringVertexSets(serial.Covering), coveringVertexSets(par.Covering))
		}
		if par.Covering != nil {
			if err := cover.VerifyOptimal(par.Covering); err != nil {
				t.Fatalf("n=%d: parallel covering invalid: %v", n, err)
			}
		}
	}
}

// TestExactParallelInfeasibilityProof checks the soundness-critical path:
// with no solution below ρ(n) there are no cancellations, so Complete
// must aggregate honestly across all subtrees and still prove the bound.
func TestExactParallelInfeasibilityProof(t *testing.T) {
	for _, n := range []int{4, 5, 6, 7, 8} {
		out := ExactCtx(context.Background(), n, ExactOptions{
			Budget: cover.Rho(n) - 1, MaxLen: 0, NodeLimit: 30_000_000, Parallelism: 4,
		})
		if !out.Complete {
			t.Fatalf("n=%d: parallel proof search hit node limit after %d nodes", n, out.Nodes)
		}
		if out.Covering != nil {
			t.Fatalf("n=%d: found covering of size %d < ρ = %d — theorem contradicted!",
				n, out.Covering.Size(), cover.Rho(n))
		}
	}
}

// TestExactParallelNodeLimitInterrupts: a starved shared budget must
// yield an honest incomplete outcome, never a bogus completeness claim.
func TestExactParallelNodeLimitInterrupts(t *testing.T) {
	out := ExactCtx(context.Background(), 12, ExactOptions{Budget: cover.Rho(12), MaxLen: 4, NodeLimit: 10, Parallelism: 4})
	if out.Complete {
		t.Error("10-node parallel search of n=12 cannot be complete")
	}
	if out.Covering != nil {
		t.Error("no solution reachable in 10 nodes")
	}
}

// TestExactParallelConcurrentCallers runs several parallel searches at
// once; with -race this doubles as the data-race check on the shared
// counters and the per-worker states.
func TestExactParallelConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			out := ExactCtx(context.Background(), n, ExactOptions{Budget: cover.Rho(n), MaxLen: 4, NodeLimit: 4_000_000, Parallelism: 3})
			if out.Covering == nil {
				t.Errorf("n=%d: parallel search found no covering at ρ", n)
				return
			}
			if err := cover.VerifyOptimal(out.Covering); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		}(6 + i)
	}
	wg.Wait()
}

// TestExactParallelismOne routes through the serial path explicitly.
func TestExactParallelismOne(t *testing.T) {
	out := ExactCtx(context.Background(), 7, ExactOptions{Budget: cover.Rho(7), MaxLen: 4, Parallelism: 1})
	if out.Covering == nil || !out.Complete {
		t.Fatal("serial path broken")
	}
}
