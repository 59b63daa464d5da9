package bench

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/survive"
)

// BenchmarkSurvivabilitySweep measures the experiment-harness sweep path
// (cached plan + k-failure engine) the way §F of EXPERIMENTS.md reports
// it: the plan comes from the sweep-shared covering cache, so the
// numbers isolate sweep cost from construction cost.
func BenchmarkSurvivabilitySweep(b *testing.B) {
	nw, err := allToAllNetwork(context.Background(), 21)
	if err != nil {
		b.Fatal(err)
	}
	sim := survive.NewSimulator(nw)
	for _, bc := range []struct {
		name string
		opts survive.SweepOptions
	}{
		{"single", survive.SweepOptions{K: 1}},
		{"double", survive.SweepOptions{K: 2}},
		{"triple-sampled", survive.SweepOptions{K: 3, Sample: 128, Seed: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.SweepCtx(context.Background(), bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableF2 measures the full F2 experiment row pipeline on a
// mid-size ring (plan from cache, single + double sweep, row assembly).
func BenchmarkTableF2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := TableF2(context.Background(), []int{12}, 12)
		if err != nil || len(rows) != 1 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}
