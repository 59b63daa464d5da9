package survive

import (
	"context"
	"fmt"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// benchSimulator plans the all-to-all network once per size.
func benchSimulator(b *testing.B, n int) *Simulator {
	b.Helper()
	res, err := construct.AllToAllCtx(context.Background(), n)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := wdm.Plan(res.Covering, graph.Complete(n))
	if err != nil {
		b.Fatal(err)
	}
	return NewSimulator(nw)
}

// BenchmarkSweep measures the k-failure sweep engine, serial vs fanned
// out, on the workloads EXPERIMENTS.md §F reports: exhaustive k = 1 and
// k = 2, and a 512-scenario sampled k = 3, all over the K_33 plan (55
// subnetworks, 528 demands).
func BenchmarkSweep(b *testing.B) {
	sim := benchSimulator(b, 33)
	for _, bc := range []struct {
		name string
		opts SweepOptions
	}{
		{"k1-serial", SweepOptions{K: 1, Workers: 1}},
		{"k1-parallel", SweepOptions{K: 1}},
		{"k2-serial", SweepOptions{K: 2, Workers: 1}},
		{"k2-parallel", SweepOptions{K: 2}},
		{"k3-sampled512-serial", SweepOptions{K: 3, Sample: 512, Seed: 1, Workers: 1}},
		{"k3-sampled512-parallel", SweepOptions{K: 3, Sample: 512, Seed: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.SweepCtx(context.Background(), bc.opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Evaluated == 0 {
					b.Fatal("empty sweep")
				}
			}
		})
	}
}

// BenchmarkSweepEvaluate is the pinned sweep hot path: one scenario
// classification over the K_33 plan's 528 resolved demand routes — the
// loop a sweep runs once per scenario. CI runs it under -benchmem and
// fails on allocs/op > 0 (see the alloc gate in ci.yml);
// TestEvaluateZeroAllocs pins the same contract as a test.
func BenchmarkSweepEvaluate(b *testing.B) {
	sim := benchSimulator(b, 33)
	sc := &sweepScratch{}
	demands, err := sim.demandRoutes(sc)
	if err != nil {
		b.Fatal(err)
	}
	links := []ring.Link{3, 17}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := sim.evaluate(links, demands)
		if t.unaffected+t.affected+t.lost != len(demands) {
			b.Fatal("tally does not partition the demands")
		}
	}
}

// BenchmarkSweepScaling sweeps k = 2 exhaustively across ring sizes —
// the scenario count grows quadratically, the per-scenario cost with the
// demand count.
func BenchmarkSweepScaling(b *testing.B) {
	for _, n := range []int{9, 17, 33} {
		sim := benchSimulator(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.SweepCtx(context.Background(), SweepOptions{K: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
