package cache

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
)

func TestSignatureCanonicalization(t *testing.T) {
	// K_n and λ=1 λK_n are the same demand: one cache entry.
	if a, b := Signature(instance.AllToAll(9), Options{}), Signature(instance.Lambda(9, 1), Options{}); a != b {
		t.Fatalf("K_9 and 1K_9 signatures differ: %q vs %q", a, b)
	}
	sigs := map[string]string{}
	for name, in := range map[string]instance.Instance{
		"k9":    instance.AllToAll(9),
		"k11":   instance.AllToAll(11),
		"2k9":   instance.Lambda(9, 2),
		"hub":   instance.Hub(9, 0),
		"hub3":  instance.Hub(9, 3),
		"neigh": instance.Neighbors(9),
		"rand7": mustRandom(t, 9, 0.5, 7),
		"rand8": mustRandom(t, 9, 0.5, 8),
	} {
		sig := Signature(in, Options{})
		if prev, ok := sigs[sig]; ok {
			t.Fatalf("instances %s and %s collide on signature %q", prev, name, sig)
		}
		sigs[sig] = name
	}
	// Options are part of the key.
	in := instance.AllToAll(9)
	if Signature(in, Options{}) == Signature(in, Options{Strategy: "greedy"}) {
		t.Fatal("options not reflected in signature")
	}
	// Signatures are name-independent: rebuilt demand, same key.
	rebuilt, err := instance.FromPairs(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if Signature(rebuilt, Options{}) != Signature(instance.AllToAll(4), Options{}) {
		t.Fatal("hand-built K_4 got a different signature than AllToAll(4)")
	}
	if !strings.HasPrefix(Signature(instance.AllToAll(4), Options{}), "n=4;d=k1") {
		t.Fatalf("unexpected K_n signature form: %q", Signature(instance.AllToAll(4), Options{}))
	}
}

func TestCoverCachedAndVerified(t *testing.T) {
	p := New(16)
	for _, in := range []instance.Instance{
		instance.AllToAll(9),
		instance.AllToAll(8),
		instance.Lambda(7, 2),
		instance.Hub(10, 2),
		instance.Neighbors(9),
	} {
		first, hit, err := p.CoverCtx(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if hit {
			t.Fatalf("%s: first request reported a cache hit", in.Name)
		}
		if err := cover.Verify(first.Covering, in.Demand); err != nil {
			t.Fatalf("%s: cached covering invalid: %v", in.Name, err)
		}
		second, hit, err := p.CoverCtx(context.Background(), in, Options{})
		if err != nil || !hit {
			t.Fatalf("%s: second request = (hit=%v, err=%v), want cache hit", in.Name, hit, err)
		}
		if second.Covering.Size() != first.Covering.Size() || second.Optimal != first.Optimal {
			t.Fatalf("%s: cached result drifted", in.Name)
		}
	}
}

// TestCoverCloneIsolation mutates a returned covering and checks the cache
// is unaffected: every caller owns a private clone.
func TestCoverCloneIsolation(t *testing.T) {
	p := New(16)
	in := instance.AllToAll(9)
	first, _, err := p.CoverCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := first.Covering.Size()
	first.Covering.Add(first.Covering.Cycles[0]) // caller-side mutation
	first.Covering.Canonicalize()

	second, hit, err := p.CoverCtx(context.Background(), in, Options{})
	if err != nil || !hit {
		t.Fatalf("second Cover = (hit=%v, err=%v)", hit, err)
	}
	if second.Covering.Size() != want {
		t.Fatalf("cache entry corrupted by caller mutation: size %d, want %d", second.Covering.Size(), want)
	}
}

func TestNetworkCached(t *testing.T) {
	p := New(16)
	in := instance.AllToAll(11)
	nw, hit, err := p.NetworkCtx(context.Background(), in, Options{})
	if err != nil || hit {
		t.Fatalf("first Network = (hit=%v, err=%v)", hit, err)
	}
	if nw.Wavelengths() != 2*len(nw.Subnets) {
		t.Fatal("planned network inconsistent")
	}
	again, hit, err := p.NetworkCtx(context.Background(), in, Options{})
	if err != nil || !hit {
		t.Fatalf("second Network = (hit=%v, err=%v), want hit", hit, err)
	}
	if again != nw {
		t.Fatal("cached network not shared")
	}
	// The network path warms the covering store too.
	if st := p.Stats(); st.Coverings.Misses != 1 || st.Networks.Misses != 1 {
		t.Fatalf("stats = %+v, want one miss per store", st)
	}
}

func TestCoverRejectsBadInstances(t *testing.T) {
	bad := instance.Instance{Name: "too small", Demand: graph.Complete(2)}
	p := New(4)
	if _, _, err := p.CoverCtx(context.Background(), bad, Options{}); err == nil {
		t.Fatal("Cover accepted a 2-vertex instance")
	}
	// Errors are not cached: the store stays empty.
	if st := p.Stats(); st.Coverings.Entries != 0 {
		t.Fatalf("error cached: %+v", st)
	}
}

// TestConcurrentCoverStampede exercises the full domain path under the
// race detector: many goroutines demand the same ring size at once and
// exactly one construction may run.
func TestConcurrentCoverStampede(t *testing.T) {
	const goroutines = 64
	p := New(16)
	in := instance.AllToAll(51)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := p.CoverCtx(context.Background(), in, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if err := cover.Verify(res.Covering, in.Demand); err != nil {
				t.Error(err)
			}
			// Exercise the clone: concurrent mutation of private copies
			// must be invisible to other callers.
			res.Covering.Canonicalize()
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.Coverings.Misses != 1 {
		t.Fatalf("%d constructions ran for one signature, want 1 (%+v)", st.Coverings.Misses, st)
	}
}

// TestConcurrentMixedWorkload hammers Cover and Network across several
// instances concurrently; run under -race this is the cache's integration
// safety test.
func TestConcurrentMixedWorkload(t *testing.T) {
	p := New(8)
	ins := []instance.Instance{
		instance.AllToAll(9),
		instance.AllToAll(10),
		instance.AllToAll(13),
		instance.Hub(9, 4),
		instance.Lambda(7, 3),
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				in := ins[(w+i)%len(ins)]
				if w%2 == 0 {
					if _, _, err := p.CoverCtx(context.Background(), in, Options{}); err != nil {
						t.Error(err)
					}
				} else {
					if _, _, err := p.NetworkCtx(context.Background(), in, Options{}); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Coverings.Misses > uint64(len(ins)) {
		t.Fatalf("more constructions than signatures: %+v", st)
	}
}

// mustRandom builds a random instance or fails the test.
func mustRandom(t *testing.T, n int, density float64, seed int64) instance.Instance {
	t.Helper()
	in, err := instance.RandomSymmetric(n, density, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}
