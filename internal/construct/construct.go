// Package construct builds DRC-coverings: the paper's optimal
// constructions for the all-to-all instance (Theorems 1 and 2), an exact
// branch-and-bound solver used both constructively and as an optimality
// certifier for small n, a greedy constructor for arbitrary logical
// graphs, and a redundancy-elimination optimiser.
//
// Odd n is fully closed-form (Theorem 1's count and composition are
// reproduced exactly, for every n). Even n combines a min-conflicts
// search at budget ρ(n) for small rings with a layered constructive
// heuristic for large ones; the heuristic is within (p/2−1) cycles of
// ρ(n) = ⌈(p²+1)/2⌉ and every produced covering is verified valid.
// EXPERIMENTS.md reports achieved versus ρ for each n, so the
// reproduction gap (only on large even rings) is explicit.
package construct

import (
	"context"
	"fmt"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// Method identifies which constructor produced a covering.
type Method string

const (
	// MethodOdd is the Theorem 1 inductive construction (optimal).
	MethodOdd Method = "odd-inductive"
	// MethodExact is branch-and-bound exact search (optimal when it
	// succeeds within its node budget).
	MethodExact Method = "exact-search"
	// MethodLayered is the even-n layered constructive heuristic.
	MethodLayered Method = "even-layered"
	// MethodGreedy is the generic greedy constructor.
	MethodGreedy Method = "greedy"
	// MethodRepair is the min-conflicts repair search (the Repair
	// strategy; inside the closed-form even path its converged results
	// are reported as MethodExact for historical compatibility).
	MethodRepair Method = "min-conflicts"
	// MethodDelta is the incremental warm-start repair (DeltaRepair): a
	// parent covering locally repaired after a bounded instance change.
	MethodDelta Method = "delta-repair"
)

// Result is a constructed covering plus provenance.
type Result struct {
	Covering *cover.Covering
	Method   Method
	// Optimal reports that the covering provably meets ρ(n) (Theorem 1
	// construction, or exact search at the ρ(n) budget).
	Optimal bool
}

// AllToAllCtx constructs a DRC-covering of K_n over C_n. For odd n the
// result is the Theorem 1 covering (optimal, matching the paper's
// composition); the closed form does not poll ctx, so ctx is checked
// before and after it. For even n it is optimal for n ≤ searchEvenLimit,
// where the min-conflicts search converges, and otherwise the layered
// construction whose size is reported against ρ(n) by the experiment
// harness; ctx reaches the embedded repair searches. Either way ctx's
// error is returned, and no covering, when it fires mid-build.
func AllToAllCtx(ctx context.Context, n int) (Result, error) {
	if n < ring.MinVertices {
		return Result{}, fmt.Errorf("construct: n = %d below minimum %d", n, ring.MinVertices)
	}
	if n%2 == 1 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		cv := Odd(n)
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return Result{Covering: cv, Method: MethodOdd, Optimal: true}, nil
	}
	cv, opt, err := EvenCtx(ctx, n)
	if err != nil {
		return Result{}, err
	}
	m := MethodLayered
	if opt {
		m = MethodExact
	}
	return Result{Covering: cv, Method: m, Optimal: opt}, nil
}
