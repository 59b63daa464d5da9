package construct

import (
	"context"
	"fmt"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
)

// coveringKey flattens a covering into a comparable string so two
// searches can be diffed bit-for-bit.
func coveringKey(cv *cover.Covering) string {
	if cv == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%v", cv.Cycles)
}

// TestExactPruningEquivalence is the orbit-pruning soundness property:
// for n in 3..10 at both the feasible (ρ) and infeasible (ρ−1) budget,
// the symmetry-pruned search and the fully disabled search agree on
// Complete and on whether a covering exists — and when both construct,
// the coverings have equal size. The pruned search may legitimately
// return a different (symmetric) representative, so cycle-level equality
// is asserted only for the memo flag (TestExactMemoEquivalence).
func TestExactPruningEquivalence(t *testing.T) {
	for n := 3; n <= 10; n++ {
		maxLens := []int{4}
		if n <= 8 {
			// Unbounded cycle length keeps the candidate space rich (every
			// subset of an arc interior) while staying affordable.
			maxLens = append(maxLens, 0)
		}
		budgets := []int{cover.Rho(n) - 1, cover.Rho(n)}
		if n == 10 {
			// n=10 at ρ is a multi-million-node construction (newly within
			// reach of this engine, impossible for the unpruned seed); the
			// certification budget alone keeps the n=10 datapoint at CI cost.
			budgets = budgets[:1]
		}
		for _, maxLen := range maxLens {
			for _, budget := range budgets {
				t.Run(fmt.Sprintf("n=%d/maxlen=%d/budget=%d", n, maxLen, budget), func(t *testing.T) {
					base := ExactOptions{Budget: budget, MaxLen: maxLen}
					pruned := base
					plain := base
					plain.DisableSymmetry, plain.DisableMemo = true, true
					got := ExactCtx(context.Background(), n, pruned)
					want := ExactCtx(context.Background(), n, plain)
					if !got.Complete || !want.Complete {
						t.Fatalf("searches did not complete: pruned=%+v plain=%+v", got, want)
					}
					if (got.Covering == nil) != (want.Covering == nil) {
						t.Fatalf("feasibility disagrees: pruned=%v plain=%v",
							coveringKey(got.Covering), coveringKey(want.Covering))
					}
					if got.Covering != nil && got.Covering.Size() != want.Covering.Size() {
						t.Fatalf("cost disagrees: pruned=%d plain=%d",
							got.Covering.Size(), want.Covering.Size())
					}
					if got.Nodes > want.Nodes {
						t.Errorf("pruned search explored more nodes (%d) than plain (%d)",
							got.Nodes, want.Nodes)
					}
				})
			}
		}
	}
}

// TestExactMemoEquivalence pins the transposition table's transparency:
// memo hits replace only subtrees already proven infeasible, so the
// search must return the bit-identical covering, Complete flag — and,
// with symmetry off too, visit solutions in the same order — with the
// table on or off. Only Nodes may differ.
func TestExactMemoEquivalence(t *testing.T) {
	for n := 3; n <= 10; n++ {
		budgets := []int{cover.Rho(n) - 1, cover.Rho(n)}
		if n == 10 {
			budgets = budgets[:1] // see TestExactPruningEquivalence
		}
		for _, budget := range budgets {
			t.Run(fmt.Sprintf("n=%d/budget=%d", n, budget), func(t *testing.T) {
				for _, disableSym := range []bool{false, true} {
					on := ExactOptions{Budget: budget, MaxLen: 4, DisableSymmetry: disableSym}
					off := on
					off.DisableMemo = true
					got := ExactCtx(context.Background(), n, on)
					want := ExactCtx(context.Background(), n, off)
					if got.Complete != want.Complete {
						t.Fatalf("sym=%v: Complete %v with memo, %v without", !disableSym, got.Complete, want.Complete)
					}
					if gk, wk := coveringKey(got.Covering), coveringKey(want.Covering); gk != wk {
						t.Fatalf("sym=%v: covering differs with memo:\n  on:  %s\n  off: %s", !disableSym, gk, wk)
					}
					if got.Nodes > want.Nodes {
						t.Errorf("sym=%v: memo-on explored more nodes (%d) than memo-off (%d)",
							!disableSym, got.Nodes, want.Nodes)
					}
				}
			})
		}
	}
}

// TestExactTruncationNeverClaimsComplete is the infeasibility-soundness
// pin: across a sweep of tiny node limits — where memo entries and orbit
// cuts interact with truncation in every possible order — a search that
// reports Complete=true must agree with the ground-truth verdict, and a
// truncated search must never manufacture an infeasibility proof at a
// budget where a covering exists.
func TestExactTruncationNeverClaimsComplete(t *testing.T) {
	for _, n := range []int{6, 8, 9} {
		rho := cover.Rho(n)
		truth := map[int]bool{rho - 1: false, rho: true} // budget → feasible (Theorems 1–2)
		for budget, feasible := range truth {
			for limit := int64(1); limit <= 4096; limit *= 4 {
				out := ExactCtx(context.Background(), n, ExactOptions{Budget: budget, MaxLen: 4, NodeLimit: limit})
				if out.Covering != nil && !feasible {
					t.Fatalf("n=%d budget=%d: covering found below ρ", n, budget)
				}
				if !out.Complete {
					continue
				}
				if feasible && out.Covering == nil {
					t.Fatalf("n=%d budget=%d limit=%d: Complete=true with no covering at a feasible budget — a false infeasibility proof",
						n, budget, limit)
				}
			}
		}
	}
}

// TestExactBeyondKeyCapacity pins the memo-off fallback for rings whose
// pair count overflows the packed residual key (PairCount(24) = 276 >
// graph.MaxKeyPairs): the search must run with the transposition table
// disabled rather than flip out-of-range key bits. Regression: the
// unguarded key maintenance panicked with "index out of range [4]".
func TestExactBeyondKeyCapacity(t *testing.T) {
	out := ExactCtx(context.Background(), 24, ExactOptions{Budget: 6, MaxLen: 4, NodeLimit: 5_000})
	if out.Covering != nil {
		t.Fatalf("budget 6 cannot cover K_24: got a covering")
	}
}
