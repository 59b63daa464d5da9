package cyclecover

import (
	"context"
	"reflect"
	"testing"
)

// TestPlannerSimulatePlanOnce pins the "plan once, sweep many" contract:
// repeated simulations of one instance — any k, sample or seed — cost a
// single network construction, and each sweep matches what a direct
// Simulator run over the same network reports.
func TestPlannerSimulatePlanOnce(t *testing.T) {
	p := NewPlanner()
	in := AllToAll(9)
	sweeps := []SweepOptions{
		{K: 1},
		{K: 2},
		{K: 3, Sample: 15, Seed: 4},
	}
	var nw *Network
	for _, opts := range sweeps {
		sim, err := p.Simulate(context.Background(), in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if nw == nil {
			nw = sim.Network
		} else if sim.Network != nw {
			t.Fatal("simulations of one signature must share the cached network")
		}
		want, err := NewSimulator(nw).SweepCtx(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, sim.Sweep) {
			t.Fatalf("k=%d: Simulate diverges from a direct sweep:\n%+v\n%+v", opts.K, want, sim.Sweep)
		}
	}
	st := p.CacheStats()
	if st.Networks.Misses != 1 {
		t.Fatalf("%d network constructions for %d simulations, want 1", st.Networks.Misses, len(sweeps))
	}
	if st.Networks.Hits != uint64(len(sweeps)-1) {
		t.Fatalf("network hits = %d, want %d", st.Networks.Hits, len(sweeps)-1)
	}
}

// TestPlannerSimulateHardening: zero-value instances and bad sweep
// parameters answer errors, never panics, and never poison the cache.
func TestPlannerSimulateHardening(t *testing.T) {
	p := NewPlanner()
	var zero Instance
	if _, err := p.Simulate(context.Background(), zero, SweepOptions{}); err == nil {
		t.Error("Simulate(zero): want error")
	}
	if st := p.CacheStats(); st.Coverings.Entries != 0 {
		t.Errorf("zero-value instance left cache entries: %+v", st)
	}
	// A bad sweep parameter fails after planning: the (valid) plan stays
	// cached, so a corrected retry sweeps without re-constructing.
	if _, err := p.Simulate(context.Background(), AllToAll(6), SweepOptions{K: 99}); err == nil {
		t.Error("k beyond the link count: want error")
	}
	if _, err := p.Simulate(context.Background(), AllToAll(6), SweepOptions{K: 2}); err != nil {
		t.Fatal(err)
	}
	if st := p.CacheStats(); st.Networks.Hits != 1 {
		t.Errorf("corrected retry must hit the cached plan: %+v", st)
	}
}

// TestPlannerSimulateCtx: a dead context aborts the simulation with its
// error — planning stage and sweep stage alike.
func TestPlannerSimulateCtx(t *testing.T) {
	p := NewPlanner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Simulate(ctx, AllToAll(9), SweepOptions{K: 2}); err == nil {
		t.Fatal("cancelled simulate: want error")
	}
	// The cancelled attempt must not have cached anything unverified; a
	// fresh call succeeds.
	if _, err := p.Simulate(context.Background(), AllToAll(9), SweepOptions{K: 2}); err != nil {
		t.Fatal(err)
	}
}
