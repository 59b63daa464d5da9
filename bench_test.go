// Benchmarks: one per experiment in DESIGN.md §4. Each benchmark
// regenerates its table/series end to end, so `go test -bench=.` is the
// full reproduction run in miniature; cmd/experiments produces the
// human-readable tables from the same code.
//
// The table paths go through the sweep cache (DESIGN.md §5.4), so the
// table benchmarks measure the pipeline as shipped — cache included. Raw constructor and verifier
// cost is measured by the explicitly uncached micro-benchmarks at the
// bottom (BenchmarkOddConstruction, BenchmarkVerifyCovering, ...) and by
// the cold/warm pair in planner_test.go.
package cyclecover

import (
	"context"
	"fmt"
	"testing"

	"github.com/cyclecover/cyclecover/internal/bench"
	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/routing"
	"github.com/cyclecover/cyclecover/internal/survive"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// T1: Theorem 1 sweep (odd n) — construction + verification + composition.
func BenchmarkTheorem1OddCovering(b *testing.B) {
	ns := []int{3, 9, 15, 21, 27, 33, 41}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.TableT1(context.Background(), ns)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Optimal || !r.Valid {
				b.Fatalf("n=%d not optimal/valid", r.N)
			}
		}
	}
}

// T2: Theorem 2 sweep (even n) — both residues of the closed form.
func BenchmarkTheorem2EvenCovering(b *testing.B) {
	ns := []int{4, 8, 12, 16, 20, 24, 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.TableT2(context.Background(), ns)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Optimal || !r.Valid {
				b.Fatalf("n=%d not optimal/valid", r.N)
			}
		}
	}
}

// T3: exact search certifications for small n.
func BenchmarkExactSolverSmallN(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.TableT3(context.Background(), []int{4, 5, 6}, 6)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.FoundAtRho || !r.ProvedBelow {
				b.Fatalf("certification failed at n=%d", r.N)
			}
		}
	}
}

// E1: the paper's worked example.
func BenchmarkExampleK4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := bench.ExampleK4()
		if res.BadTourRoutable || !res.GoodCoveringValid {
			b.Fatal("example mismatch")
		}
	}
}

// C1: DRC vs unconstrained covering sizes.
func BenchmarkBaselineComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.TableC1([]int{5, 9, 15, 21, 31})
	}
}

// C2: cycle-count vs total-size objectives.
func BenchmarkObjectiveComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableC2(context.Background(), []int{5, 9, 15, 21}); err != nil {
			b.Fatal(err)
		}
	}
}

// F1: asymptotic series ρ(n)/n².
func BenchmarkRhoAsymptotics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.SeriesF1([]int{11, 51, 101, 201, 401, 1001})
	}
}

// F2: failure drills (single sweeps; double for the small sizes).
func BenchmarkFailureRecovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.TableF2(context.Background(), []int{5, 8, 11, 15}, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.AllRestored {
				b.Fatal("survivability violated")
			}
		}
	}
}

// F3: WDM cost profiles.
func BenchmarkWDMCost(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableF3(context.Background(), []int{5, 9, 13, 17}); err != nil {
			b.Fatal(err)
		}
	}
}

// X1: λK_n extension.
func BenchmarkLambdaKn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableX1(context.Background(), []int{7, 9}, []int{1, 2, 3, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// X2: extension topologies.
func BenchmarkExtensionTopologies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableX2(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// A2: verifier ablation — the O(k) structural DRC criterion vs the
// explicit arc-disjointness re-verification.
func BenchmarkVerifierAblation(b *testing.B) {
	r := ring.MustNew(101)
	cv := construct.Odd(101)
	b.Run("structural", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range cv.Cycles {
				if !routing.Tour(c.Vertices()).IsRingOrdered(r) {
					b.Fatal("structural check failed")
				}
			}
		}
	})
	b.Run("explicit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range cv.Cycles {
				if err := cover.VerifyDRC(r, c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// Micro-benchmarks for the core paths.

func BenchmarkOddConstruction(b *testing.B) {
	for _, n := range []int{21, 51, 101, 201} {
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cv := construct.Odd(n)
				if cv.Size() != cover.Rho(n) {
					b.Fatal("size mismatch")
				}
			}
		})
	}
}

func BenchmarkVerifyCovering(b *testing.B) {
	cv := construct.Odd(101)
	demand := graph.Complete(101)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := cover.Verify(cv, demand); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyCovering(b *testing.B) {
	r := ring.MustNew(31)
	demand := graph.Complete(31)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cv, err := construct.GreedyCtx(context.Background(), r, demand)
		if err != nil || cv.Size() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkSingleFailureSweep(b *testing.B) {
	res, err := construct.AllToAllCtx(context.Background(), 21)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := wdm.Plan(res.Covering, graph.Complete(21))
	if err != nil {
		b.Fatal(err)
	}
	sim := survive.NewSimulator(nw)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep, err := sim.SweepCtx(context.Background(), survive.SweepOptions{K: 1})
		if err != nil || !sweep.AllRestored {
			b.Fatal("sweep failed")
		}
	}
}

// S1: concurrent warm-hit throughput of the store. All goroutines hammer
// warm keys, so every operation is one lock acquisition, a map lookup
// and an LRU move.
func BenchmarkStoreWarmHitThroughput(b *testing.B) {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("n=%d;d=k1", i+3)
	}
	s := cache.NewStore(4096)
	for i, k := range keys {
		s.Put(k, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, hit, _ := s.DoCtx(context.Background(), keys[i%len(keys)], func(context.Context) (any, error) { return nil, nil }); !hit {
				b.Fatal("expected warm hit")
			}
			i++
		}
	})
}

// BenchmarkExact is the pinned exact-search hot-path benchmark (see
// BENCH_5.json): the full branch-and-bound certification of K_12 at
// ρ(12), serial, fixed node limit. Its inner branch is the hottest loop
// in the solver; the dense-core refactor is measured against it, and the
// symmetry-reduced engine reports its search effort as nodes/op (gated
// by cmd/benchgate alongside the allocation budgets).
func BenchmarkExact(b *testing.B) {
	const n = 12
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		out := construct.ExactCtx(context.Background(), n, construct.ExactOptions{
			Budget: cover.Rho(n), MaxLen: 4, NodeLimit: 8_000_000,
		})
		if out.Covering == nil {
			b.Fatal("no covering at ρ(12)")
		}
		nodes += out.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// BenchmarkExactCert is the pinned lower-bound certification benchmark
// (see BENCH_8.json): the completed infeasibility proof of K_12 at
// ρ(12)−1 within the paper's cycle-length class (MaxLen 4), serial. The
// whole tree must be exhausted, so — unlike the constructive search
// above, which stops at the first covering — this measures raw pruning
// power; the symmetry/memo/counting-bound engine is measured against it.
func BenchmarkExactCert(b *testing.B) {
	const n = 12
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		out := construct.ExactCtx(context.Background(), n, construct.ExactOptions{
			Budget: cover.Rho(n) - 1, MaxLen: 4, NodeLimit: construct.DefaultNodeLimit,
		})
		if out.Covering != nil || !out.Complete {
			b.Fatalf("ρ(12)−1 must be a completed infeasibility proof, got %+v", out)
		}
		nodes += out.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// BenchmarkExactCertRho13 certifies ρ(13) − the first ring size whose
// lower-bound proof only became feasible inside DefaultNodeLimit with
// the symmetry-reduced engine (BENCH_8.json): a completed exhaustion of
// K_13 at ρ(13)−1, MaxLen 4, serial.
func BenchmarkExactCertRho13(b *testing.B) {
	const n = 13
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		out := construct.ExactCtx(context.Background(), n, construct.ExactOptions{
			Budget: cover.Rho(n) - 1, MaxLen: 4, NodeLimit: construct.DefaultNodeLimit,
		})
		if out.Covering != nil || !out.Complete {
			b.Fatalf("ρ(13)−1 must be a completed infeasibility proof, got %+v", out)
		}
		nodes += out.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// BenchmarkSweep is the pinned sweep hot-path benchmark (see
// BENCH_5.json): exhaustive k = 1 and k = 2 failure sweeps of the K_12
// plan, measuring the per-sweep fixed costs plus the scenario evaluate
// loop.
func BenchmarkSweep(b *testing.B) {
	res, err := construct.AllToAllCtx(context.Background(), 12)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := wdm.Plan(res.Covering, graph.Complete(12))
	if err != nil {
		b.Fatal(err)
	}
	sim := survive.NewSimulator(nw)
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sweep, err := sim.SweepCtx(context.Background(), survive.SweepOptions{K: k})
				if err != nil || sweep.Evaluated == 0 {
					b.Fatal("sweep failed")
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
