// Package construct builds DRC-coverings: the paper's optimal
// constructions for the all-to-all instance (Theorems 1 and 2), an exact
// branch-and-bound solver used both constructively and as an optimality
// certifier for small n, a greedy constructor for arbitrary logical
// graphs, the delta patch that replans a child demand from its parent's
// covering, a redundancy-elimination optimiser, and the shortest cycle
// cover members for general hosts.
//
// Every K_n is built in closed form: Theorem 1's induction for odd n
// (count and composition reproduced exactly), and for even n two steps
// from it that reach ρ(n) = ⌈(p²+1)/2⌉ at every n = 2p (Even). No ring
// path searches at random; the one generator in the package is
// scc-colour's constant-seed PCG.
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
	// MethodEven is the Theorem 2 construction for even n (optimal).
	MethodEven Method = "even-inductive"
	// MethodGreedy is the generic greedy constructor.
	MethodGreedy Method = "greedy"
	// MethodDelta is the delta patch (DeltaRepair): a parent covering
	// kept, patched for a bounded instance change, and pruned.
	MethodDelta Method = "delta-repair"
)

// Result is a constructed covering plus provenance.
type Result struct {
	Covering *cover.Covering
	Method   Method
	// Optimal reports that the covering provably meets ρ(n) (the
	// Theorem 1 and 2 constructions, or exact search at the ρ(n) budget).
	Optimal bool
}

// AllToAllCtx constructs an optimal DRC-covering of K_n over C_n: Odd's
// Theorem 1 covering for odd n, Even's Theorem 2 covering for even n.
// Neither closed form polls ctx, so ctx is checked before and after the
// build, and its error is returned, with no covering, once it has fired.
func AllToAllCtx(ctx context.Context, n int) (Result, error) {
	if n < ring.MinVertices {
		return Result{}, fmt.Errorf("construct: n = %d below minimum %d", n, ring.MinVertices)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res := Result{Method: MethodOdd, Optimal: true}
	if n%2 == 1 {
		res.Covering = Odd(n)
	} else {
		res.Covering, res.Method = Even(n), MethodEven
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}
