package construct

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// Portfolio-vs-single-strategy benchmarks. Nothing below the cache
// memoizes a construction, so these measure real construction work per
// iteration. The portfolio tries its members in priority order: on K_13
// the closed form is optimal and ends the loop, so the portfolio costs
// the closed form alone; on the hub demand greedy is the only member
// that applies, and the other six refuse at once (see EXPERIMENTS.md §P
// and §T).

func benchSolve(b *testing.B, st Strategy, in instance.Instance) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := st.Solve(ctx, in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyClosedFormOdd13(b *testing.B) {
	benchSolve(b, ClosedForm{}, instance.AllToAll(13))
}

func BenchmarkStrategyPortfolioOdd13(b *testing.B) {
	benchSolve(b, NewPortfolio(), instance.AllToAll(13))
}

func BenchmarkStrategyGreedyHub32(b *testing.B) {
	benchSolve(b, GreedySweep{}, instance.Hub(32, 0))
}

func BenchmarkStrategyPortfolioHub32(b *testing.B) {
	benchSolve(b, NewPortfolio(), instance.Hub(32, 0))
}

func BenchmarkStrategyExactOdd9(b *testing.B) {
	benchSolve(b, ExactSearch{}, instance.AllToAll(9))
}

// BenchmarkGreedyDirect is the registry-free baseline for the greedy
// path, isolating the strategy layer's dispatch overhead.
func BenchmarkGreedyDirect(b *testing.B) {
	in := instance.Hub(32, 0)
	r := ring.MustNew(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyCtx(context.Background(), r, in.Demand); err != nil {
			b.Fatal(err)
		}
	}
}
