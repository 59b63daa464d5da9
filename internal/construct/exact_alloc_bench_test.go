package construct

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
)

// BenchmarkExactInnerBranch is the pinned exact-search hot path: a
// complete infeasibility proof of K_8 at ρ(8)−1 over a warm
// ExactScratch — pure branching machinery, no solution materialisation.
// CI runs it under -benchmem and fails on allocs/op > 0 (see the alloc
// gate in ci.yml); TestExactInnerBranchZeroAllocs pins the same contract
// as a test.
func BenchmarkExactInnerBranch(b *testing.B) {
	const n = 8
	opts := ExactOptions{
		Budget:    cover.Rho(n) - 1,
		MaxLen:    4,
		NodeLimit: 4_000_000,
		Scratch:   NewExactScratch(),
	}
	if out := ExactCtx(context.Background(), n, opts); out.Covering != nil || !out.Complete { // warm the scratch
		b.Fatalf("expected completed infeasibility proof, got %+v", out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ExactCtx(context.Background(), n, opts); out.Covering != nil || !out.Complete {
			b.Fatal("search result changed")
		}
	}
}
