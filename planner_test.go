package cyclecover

import (
	"context"
	"sync"
	"testing"
)

// TestPlannerMatchesUncachedPath checks the facade returns exactly what
// the free functions return, warm or cold.
func TestPlannerMatchesUncachedPath(t *testing.T) {
	p := NewPlanner()
	for _, n := range []int{5, 8, 9, 12, 13} {
		direct, directOpt, err := CoverAllToAll(n)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // cold, then warm
			cached, cachedOpt, err := p.CoverAllToAll(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}
			if cached.Size() != direct.Size() || cachedOpt != directOpt {
				t.Fatalf("n=%d pass %d: planner (%d, %v) != direct (%d, %v)",
					n, pass, cached.Size(), cachedOpt, direct.Size(), directOpt)
			}
			if err := Verify(cached, AllToAll(n)); err != nil {
				t.Fatalf("n=%d pass %d: %v", n, pass, err)
			}
		}
	}
	st := p.CacheStats()
	if st.Coverings.Misses != 5 || st.Coverings.Hits != 5 {
		t.Fatalf("stats = %+v, want 5 misses and 5 hits", st)
	}
}

func TestPlannerPlanWDM(t *testing.T) {
	p := NewPlanner(WithCacheSize(8))
	in := AllToAll(9)
	nw, err := p.PlanWDM(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.PlanWDM(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if nw != again {
		t.Fatal("warm PlanWDM rebuilt the network")
	}
	sim := NewSimulator(nw)
	report, err := sim.Fail(0)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Restored() {
		t.Fatal("single failure not restored on cached network")
	}
}

// TestPlannerReturnsPrivateClones: a caller trashing its covering must
// not affect later calls.
func TestPlannerReturnsPrivateClones(t *testing.T) {
	p := NewPlanner()
	cv, _, err := p.CoverAllToAll(context.Background(), 9)
	if err != nil {
		t.Fatal(err)
	}
	want := cv.Size()
	cv.Add(cv.Cycles[0]) // corrupt the caller's copy
	cv2, _, err := p.CoverAllToAll(context.Background(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if cv2.Size() != want {
		t.Fatalf("cache corrupted: %d, want %d", cv2.Size(), want)
	}
}

// TestPlannerConcurrentUse is the facade-level race test.
func TestPlannerConcurrentUse(t *testing.T) {
	p := NewPlanner()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 9 + (w%3)*2
			for i := 0; i < 5; i++ {
				if _, _, err := p.CoverAllToAll(context.Background(), n); err != nil {
					t.Error(err)
					return
				}
				if _, err := p.PlanWDM(context.Background(), AllToAll(n)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := p.CacheStats(); st.Coverings.Misses > 3 {
		t.Fatalf("more constructions than distinct sizes: %+v", st)
	}
}

// BenchmarkCoverAllToAllUncached is the cold path: every iteration
// reconstructs the K_101 covering from scratch.
func BenchmarkCoverAllToAllUncached(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cv, _, err := CoverAllToAll(101)
		if err != nil || cv.Size() == 0 {
			b.Fatal("construction failed")
		}
	}
}

// BenchmarkPlannerCoverAllToAllWarm is the cached path on the same
// workload. The acceptance bar for the covering cache is ≥10x over
// BenchmarkCoverAllToAllUncached; in practice the spread is orders of
// magnitude (a clone versus a full construction).
func BenchmarkPlannerCoverAllToAllWarm(b *testing.B) {
	p := NewPlanner()
	if _, _, err := p.CoverAllToAll(context.Background(), 101); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv, _, err := p.CoverAllToAll(context.Background(), 101)
		if err != nil || cv.Size() == 0 {
			b.Fatal("cached cover failed")
		}
	}
}

// BenchmarkPlannerPlanWDMWarm measures the cached optical-design path.
func BenchmarkPlannerPlanWDMWarm(b *testing.B) {
	p := NewPlanner()
	in := AllToAll(51)
	if _, err := p.PlanWDM(context.Background(), in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlanWDM(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanManyMixedBatch plans a heterogeneous batch — duplicates, all
// spec families, and a poisoned zero-value instance — and checks order
// preservation, per-slot errors, and single-construction deduplication.
func TestPlanManyMixedBatch(t *testing.T) {
	p := NewPlanner()
	random, err := RandomInstance(9, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	ins := []Instance{
		AllToAll(9),
		AllToAll(9), // duplicate signature: must not construct twice
		Hub(10, 3),
		Neighbors(9),
		random,
		LambdaAllToAll(7, 2),
		{}, // zero value: error slot, not a panic
		AllToAll(9),
	}
	results := p.PlanMany(context.Background(), ins)
	if len(results) != len(ins) {
		t.Fatalf("got %d results for %d instances", len(results), len(ins))
	}
	for i, res := range results {
		if i == 6 {
			if res.Err == nil {
				t.Fatalf("slot %d: zero-value instance must error", i)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("slot %d (%s): %v", i, ins[i].Name, res.Err)
		}
		if err := Verify(res.Covering, ins[i]); err != nil {
			t.Fatalf("slot %d (%s): covering invalid: %v", i, ins[i].Name, err)
		}
		if res.Network == nil || len(res.Network.Subnets) != res.Covering.Size() {
			t.Fatalf("slot %d (%s): network inconsistent with covering", i, ins[i].Name)
		}
	}
	// Slots 0, 1 and 7 share one signature and slot 6 never constructs,
	// leaving five distinct signatures.
	if st := p.CacheStats(); st.Coverings.Misses != 5 {
		t.Fatalf("coverings misses = %d, want 5 (one per distinct signature)", st.Coverings.Misses)
	}
}

// TestPlanManyEmptyAndSerial covers the edges: an empty batch and a
// batch of one.
func TestPlanManyEmptyAndSerial(t *testing.T) {
	p := NewPlanner()
	if got := p.PlanMany(context.Background(), nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	results := p.PlanMany(context.Background(), []Instance{AllToAll(5)})
	if len(results) != 1 || results[0].Err != nil || results[0].Covering.Size() != 3 {
		t.Fatalf("serial PlanMany broken: %+v", results)
	}
}

// TestPlanManyConcurrentBatches runs several PlanMany calls on one
// planner at once; with -race this checks concurrent batches against
// the cache.
func TestPlanManyConcurrentBatches(t *testing.T) {
	p := NewPlanner()
	ins := []Instance{AllToAll(9), AllToAll(11), Hub(9, 0), Neighbors(8)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, res := range p.PlanMany(context.Background(), ins) {
				if res.Err != nil {
					t.Error(res.Err)
				}
			}
		}()
	}
	wg.Wait()
	if st := p.CacheStats(); st.Coverings.Misses != uint64(len(ins)) {
		t.Fatalf("misses = %d, want %d", st.Coverings.Misses, len(ins))
	}
}

// BenchmarkPlanManyWarm is the facade batch path against a warm cache.
func BenchmarkPlanManyWarm(b *testing.B) {
	p := NewPlanner()
	ins := []Instance{
		AllToAll(9), AllToAll(11), AllToAll(13), Hub(12, 0), Neighbors(10),
		AllToAll(9), AllToAll(11), AllToAll(13),
	}
	p.PlanMany(context.Background(), ins) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range p.PlanMany(context.Background(), ins) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkPlanManyCold is a lone client's batch of 16 distinct cold
// ring plans (random:0.3:1, n = 41, 43, …, 71) on a fresh Planner: every
// slot constructs, verifies and plans WDM.
func BenchmarkPlanManyCold(b *testing.B) {
	ins := make([]Instance, 16)
	for i := range ins {
		in, err := RandomInstance(41+2*i, 0.3, 1)
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = in
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, res := range NewPlanner().PlanMany(context.Background(), ins) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}
