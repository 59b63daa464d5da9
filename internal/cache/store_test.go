package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStoreHitMissAndRecency(t *testing.T) {
	s := NewStore(2)
	compute := func(v int) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return v, nil }
	}
	if v, hit, _ := s.DoCtx(context.Background(), "a", compute(1)); hit || v.(int) != 1 {
		t.Fatalf("first Do(a) = (%v, hit=%v), want (1, miss)", v, hit)
	}
	if v, hit, _ := s.DoCtx(context.Background(), "a", compute(99)); !hit || v.(int) != 1 {
		t.Fatalf("second Do(a) = (%v, hit=%v), want cached (1, hit)", v, hit)
	}
	s.DoCtx(context.Background(), "b", compute(2))
	s.DoCtx(context.Background(), "a", compute(0)) // refresh a's recency
	s.DoCtx(context.Background(), "c", compute(3)) // evicts b, the least recently used
	if _, ok := s.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order not respected")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("recently-used a was evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestStoreErrorsAreNotCached(t *testing.T) {
	s := NewStore(4)
	boom := errors.New("boom")
	calls := 0
	f := func(context.Context) (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := s.DoCtx(context.Background(), "k", f); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := s.DoCtx(context.Background(), "k", f)
	if err != nil || hit || v.(string) != "ok" {
		t.Fatalf("retry = (%v, hit=%v, err=%v), want fresh ok", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

// TestStoreSingleFlightStampede floods one key from many goroutines while
// the first computation is deliberately held open, and asserts exactly one
// compute ran with every other request coalescing onto it.
func TestStoreSingleFlightStampede(t *testing.T) {
	const waiters = 100
	s := NewStore(8)
	gate := make(chan struct{})
	var computes atomic.Int64

	results := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := s.DoCtx(context.Background(), "stampede", func(context.Context) (any, error) {
				computes.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results <- v.(int)
		}()
	}
	// Release the gate only once every other goroutine has either become
	// the computing call or registered as coalesced, so the stampede is a
	// true stampede and not a sequence of cache hits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Misses+st.Coalesced == waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stampede never converged: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(results)

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times under stampede, want exactly 1", got)
	}
	for v := range results {
		if v != 42 {
			t.Fatalf("waiter got %d, want 42", v)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", st, waiters-1)
	}
}

func TestStoreCapacityFloor(t *testing.T) {
	s := NewStore(0) // clamped to 1
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		s.DoCtx(context.Background(), k, func(context.Context) (any, error) { return i, nil })
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
}

// TestStoreExactGlobalLRU pins the capacity contract: NewStore(c) holds
// exactly c entries, and the one it evicts is the least recently used
// across the whole store.
func TestStoreExactGlobalLRU(t *testing.T) {
	for _, c := range []int{2, 10, 32, 63, 64, 256} {
		s := NewStore(c)
		key := func(i int) string { return fmt.Sprintf("n=%d;d=k1", i+3) }
		for i := 0; i < c; i++ {
			s.Put(key(i), i)
			if ev := s.Stats().Evictions; ev != 0 {
				t.Fatalf("c=%d: insert #%d evicted %d entries below capacity", c, i+1, ev)
			}
		}
		if n := s.Len(); n != c {
			t.Fatalf("c=%d: len = %d after %d inserts, want %d", c, n, c, c)
		}
		if _, ok := s.Get(key(0)); !ok {
			t.Fatalf("c=%d: key 0 missing from a full store", c)
		}
		s.Put(key(c), c)
		st := s.Stats()
		if st.Evictions != 1 || st.Entries != c {
			t.Fatalf("c=%d: one insert past capacity gave %d evictions, %d entries; want 1 and %d", c, st.Evictions, st.Entries, c)
		}
		if _, ok := s.Get(key(1)); ok {
			t.Fatalf("c=%d: key 1, the least recently used, survived", c)
		}
		for i := 0; i <= c; i++ {
			if _, ok := s.Get(key(i)); !ok && i != 1 {
				t.Fatalf("c=%d: key %d evicted instead of key 1", c, i)
			}
		}
	}
}

// TestStoreFullWorkingSetDoesNotThrash loads exactly capacity many keys
// and re-touches them all: a working set that fits the store keeps
// hitting, and exactly capacity keys stay resident.
func TestStoreFullWorkingSetDoesNotThrash(t *testing.T) {
	const capacity = 256
	s := NewStore(capacity)
	keys := make([]string, capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("n=%d;d=k%d", i+3, 1+i%3)
		s.Put(keys[i], i)
	}
	for _, k := range keys {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %q evicted although the working set equals the capacity", k)
		}
	}
	if st := s.Stats(); st.Evictions != 0 || st.Entries != capacity {
		t.Fatalf("capacity-sized working set: %d evictions, %d resident; want 0 and %d", st.Evictions, st.Entries, capacity)
	}
}

// TestStoreConcurrentMixedTraffic hammers the store from many goroutines
// with overlapping keys — warm hits, cold misses and single-flight joins
// all interleaved — and then checks the accounting. Run under -race this
// is the locking correctness test.
func TestStoreConcurrentMixedTraffic(t *testing.T) {
	const (
		goroutines = 32
		keys       = 40
		rounds     = 50
	)
	s := NewStore(keys)
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("key-%d", (g+r)%keys)
				v, _, err := s.DoCtx(context.Background(), k, func(context.Context) (any, error) {
					computes.Add(1)
					return k, nil
				})
				if err != nil || v.(string) != k {
					t.Errorf("Do(%q) = (%v, %v)", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	total := st.Hits + st.Misses + st.Coalesced
	if total != goroutines*rounds {
		t.Fatalf("hits+misses+coalesced = %d, want %d (stats %+v)", total, goroutines*rounds, st)
	}
	if st.Misses != uint64(computes.Load()) {
		t.Fatalf("misses = %d but computes = %d", st.Misses, computes.Load())
	}
	// Capacity covers every key, so nothing should have been evicted and
	// every key must be resident.
	if st.Evictions != 0 || s.Len() != keys {
		t.Fatalf("evictions = %d, len = %d; want 0 and %d", st.Evictions, s.Len(), keys)
	}
}

// TestStoreDefaultSingleFlightStampede re-runs the stampede check at the
// default capacity: one key, many concurrent callers, exactly one
// compute.
func TestStoreDefaultSingleFlightStampede(t *testing.T) {
	const waiters = 64
	s := NewStore(DefaultCapacity)
	gate := make(chan struct{})
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := s.DoCtx(context.Background(), "hot", func(context.Context) (any, error) {
				computes.Add(1)
				<-gate
				return 7, nil
			})
			if err != nil || v.(int) != 7 {
				t.Errorf("Do = (%v, %v)", v, err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Misses+st.Coalesced == waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stampede never converged: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
}
