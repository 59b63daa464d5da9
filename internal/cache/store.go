package cache

import (
	"container/list"
	"context"
	"sync"

	"github.com/cyclecover/cyclecover/internal/construct"
)

// Store is a bounded memoization table: one LRU map joined with a
// single-flight group, under one mutex. DoCtx serves repeated keys from
// memory and collapses concurrent misses for one key onto a single
// computation. The store holds at most its capacity and evicts the
// globally least recently used entry. Errors are never cached — a
// failed computation is reported to every waiter and the next request
// retries.
//
// One lock is enough: a warm hit holds it for a map lookup and a list
// move, and on 2 vCPUs it outran a 16-way sharded store in
// BenchmarkStoreWarmHitThroughput (EXPERIMENTS.md §L).
type Store struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // most-recent first
	items    map[string]*list.Element // key → *entry element
	inflight map[string]*call
	stats    Stats
}

type entry struct {
	key string
	val any
}

// call is one in-flight computation. waiters counts the callers —
// originator included — currently blocked on it; a waiter whose context
// fires detaches (decrementing the count) without disturbing the entry,
// and only when the count reaches zero is the computation itself
// cancelled. Guarded by the store mutex, except done/val/err which
// follow the close-after-write protocol (val and err are written, and
// done closed, under the lock; readers may select on done without the
// lock and then read val/err freely).
type call struct {
	done    chan struct{} // closed when val/err are final
	val     any
	err     error
	waiters int
	cancel  context.CancelFunc // cancels the computation's context
}

// Stats counts cache traffic. Hits are LRU hits; Coalesced are requests
// that joined an in-flight computation; Misses are computations actually
// run; Abandoned are waiters that detached (context fired) before their
// computation finished; Cancelled are computations aborted because their
// last waiter departed; Evictions are LRU removals.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Abandoned uint64 `json:"abandoned"`
	Cancelled uint64 `json:"cancelled"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// NewStore returns a store holding at most capacity entries (values
// below 1 become 1).
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// DoCtx returns the cached value for key, computing it with compute on a
// miss. hit reports whether the value was served without running compute
// in this call (an LRU hit, or a join onto another caller's in-flight
// computation). Successful results are inserted at the front of the LRU.
//
// Waiting is detachable: a caller whose ctx fires while the value is
// being computed returns ctx's error immediately — without poisoning or
// evicting anything — while the computation keeps running for the
// remaining waiters and still lands in the cache. The computation's own
// context (handed to compute) is cancelled only when the LAST waiter
// departs: at that point nobody wants the result, so the work is
// abandoned and the next request for the key starts fresh. Errors —
// including a cancelled computation's — are never cached.
//
// A caller whose ctx has already fired may still take a cached value,
// but on a miss it returns ctx's error at once: it never starts or joins
// a computation, and it moves no counter.
func (s *Store) DoCtx(ctx context.Context, key string, compute func(context.Context) (any, error)) (val any, hit bool, err error) {
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.stats.Hits++
		v := el.Value.(*entry).val
		s.mu.Unlock()
		return v, true, nil
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	if c, ok := s.inflight[key]; ok {
		c.waiters++
		s.stats.Coalesced++
		s.mu.Unlock()
		return s.wait(ctx, key, c, true)
	}
	// The computation must outlive this caller (other waiters may join),
	// so its context drops ctx's cancellation and deadline, which reach it
	// only through the last-waiter-departs rule below.
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
	s.inflight[key] = c
	s.stats.Misses++
	s.mu.Unlock()

	go func() {
		v, err := runCompute(cctx, compute)
		cancel()
		s.mu.Lock()
		c.val, c.err = v, err
		if s.inflight[key] == c {
			delete(s.inflight, key)
		}
		if err == nil {
			// Cache even if every waiter gave up: the value is computed
			// and deterministic for the key, so the next request hits.
			s.add(key, v)
		}
		close(c.done) // under the lock: wait() rechecks done while holding it
		s.mu.Unlock()
	}()
	return s.wait(ctx, key, c, false)
}

// runCompute shields the store from a panicking computation: compute
// runs on an internal goroutine (so waiters can detach), where an
// unrecovered panic would kill the whole process and leave every waiter
// hung on a never-closed done channel. A panic becomes a fingerprinted
// *construct.PanicError — which the store refuses to cache, and which
// the serving layer counts per fingerprint — failing only this key's
// waiters.
func runCompute(ctx context.Context, compute func(context.Context) (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = construct.Recovered("cache", r)
		}
	}()
	return compute(ctx)
}

// wait blocks until c finishes or ctx fires, detaching on the latter.
// joined reports whether this caller coalesced onto an existing call
// (it becomes the hit flag on success).
func (s *Store) wait(ctx context.Context, key string, c *call, joined bool) (any, bool, error) {
	select {
	case <-c.done:
		return c.val, joined, c.err
	case <-ctx.Done():
	}
	s.mu.Lock()
	select {
	case <-c.done:
		// The result landed while we were acquiring the lock; take it.
		s.mu.Unlock()
		return c.val, joined, c.err
	default:
	}
	c.waiters--
	s.stats.Abandoned++
	if c.waiters == 0 {
		// Last waiter departing: nobody wants the result. Cancel the
		// computation and clear the in-flight slot so a fresh request
		// starts over instead of joining a doomed call.
		if s.inflight[key] == c {
			delete(s.inflight, key)
		}
		s.stats.Cancelled++
		c.cancel()
	}
	s.mu.Unlock()
	return nil, false, ctx.Err()
}

// Put inserts a value directly, as if computed. Used by snapshot loading.
func (s *Store) Put(key string, val any) {
	s.mu.Lock()
	s.add(key, val)
	s.mu.Unlock()
}

// Each calls f for every resident entry, from most to least recently
// used, holding the store lock: f must not call back into the store.
func (s *Store) Each(f func(key string, val any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		f(e.key, e.val)
	}
}

// Get returns the cached value without computing, refreshing recency.
func (s *Store) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.ll.Len()
	return st
}

// add inserts (or refreshes) key at the front of the LRU, evicting the
// tail when the capacity is exceeded. Caller holds s.mu.
func (s *Store) add(key string, val any) {
	if el, ok := s.items[key]; ok {
		el.Value.(*entry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&entry{key: key, val: val})
	if s.ll.Len() > s.capacity {
		tail := s.ll.Back()
		s.ll.Remove(tail)
		delete(s.items, tail.Value.(*entry).key)
		s.stats.Evictions++
	}
}
