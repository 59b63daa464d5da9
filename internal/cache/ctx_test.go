package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// TestDoCtxWaiterDetach: a waiter whose context fires detaches
// immediately, while the computation keeps running for the survivors and
// its result still lands in the cache, uncorrupted.
func TestDoCtxWaiterDetach(t *testing.T) {
	s := NewStore(8)
	started := make(chan struct{})
	release := make(chan struct{})

	type res struct {
		val any
		err error
	}
	survivor := make(chan res, 1)
	go func() {
		v, _, err := s.DoCtx(context.Background(), "k", func(context.Context) (any, error) {
			close(started)
			<-release
			return 42, nil
		})
		survivor <- res{v, err}
	}()
	<-started

	// Second waiter joins the in-flight call, then gives up.
	ctx, cancel := context.WithCancel(context.Background())
	joined := make(chan res, 1)
	go func() {
		v, _, err := s.DoCtx(ctx, "k", func(context.Context) (any, error) {
			t.Error("joined waiter must not recompute")
			return nil, nil
		})
		joined <- res{v, err}
	}()
	// Give the joiner a moment to attach, then cancel it.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case r := <-joined:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("detached waiter err = %v, want Canceled", r.err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter did not detach promptly")
	}

	// The survivor still gets the value, and the entry is cached.
	close(release)
	select {
	case r := <-survivor:
		if r.err != nil || r.val != 42 {
			t.Fatalf("survivor got (%v, %v), want (42, nil)", r.val, r.err)
		}
	case <-time.After(time.Second):
		t.Fatal("survivor never completed")
	}
	if v, ok := s.Get("k"); !ok || v != 42 {
		t.Fatalf("entry after detach: (%v, %v), want (42, true)", v, ok)
	}
	st := s.Stats()
	if st.Abandoned != 1 || st.Cancelled != 0 {
		t.Fatalf("stats = %+v, want Abandoned=1 Cancelled=0", st)
	}
}

// TestDoCtxLastWaiterCancelsComputation: when every waiter departs, the
// computation's context fires; its error result is not cached and the
// next request recomputes cleanly.
func TestDoCtxLastWaiterCancelsComputation(t *testing.T) {
	s := NewStore(8)
	computeCancelled := make(chan struct{})
	started := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	_, _, err := s.DoCtx(ctx, "k", func(cctx context.Context) (any, error) {
		close(started)
		select {
		case <-cctx.Done():
			close(computeCancelled)
			return nil, cctx.Err()
		case <-time.After(5 * time.Second):
			return nil, errors.New("computation context never fired")
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	select {
	case <-computeCancelled:
	case <-time.After(time.Second):
		t.Fatal("computation was not cancelled after its last waiter departed")
	}
	// Nothing cached, nothing poisoned: a fresh request recomputes.
	v, hit, err := s.DoCtx(context.Background(), "k", func(context.Context) (any, error) { return "fresh", nil })
	if err != nil || hit || v != "fresh" {
		t.Fatalf("after abandoned computation: (%v, %v, %v), want (fresh, false, nil)", v, hit, err)
	}
	st := s.Stats()
	if st.Cancelled != 1 {
		t.Fatalf("stats = %+v, want Cancelled=1", st)
	}
}

// TestDoCtxDetachRace hammers one signature with waiters that cancel at
// random points while others survive — under -race this pins that a
// detaching waiter cannot corrupt the entry delivered to survivors.
func TestDoCtxDetachRace(t *testing.T) {
	s := NewStore(32)
	for round := 0; round < 20; round++ {
		key := fmt.Sprintf("k%d", round)
		want := round * 100
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ctx := context.Background()
				if g%2 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(g)*100*time.Microsecond)
					defer cancel()
				}
				v, _, err := s.DoCtx(ctx, key, func(cctx context.Context) (any, error) {
					// Slow enough that some waiters' deadlines fire mid-
					// flight; fast enough to keep the test quick.
					select {
					case <-time.After(2 * time.Millisecond):
					case <-cctx.Done():
						return nil, cctx.Err()
					}
					return want, nil
				})
				if err != nil {
					if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
						t.Errorf("unexpected error: %v", err)
					}
					return
				}
				if v != want {
					t.Errorf("got %v, want %d", v, want)
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestDoCtxComputePanic: a panicking computation surfaces as a
// fingerprinted *construct.PanicError to every waiter (the compute
// goroutine must not crash the process or leave done unclosed), is not
// cached, and the key recovers.
func TestDoCtxComputePanic(t *testing.T) {
	s := NewStore(8)
	_, _, err := s.DoCtx(context.Background(), "k", func(context.Context) (any, error) { panic("constructor bug") })
	var pe *construct.PanicError
	if err == nil || !errors.As(err, &pe) || !strings.Contains(pe.Value, "constructor bug") {
		t.Fatalf("err = %v, want *construct.PanicError carrying the panic message", err)
	}
	v, hit, err := s.DoCtx(context.Background(), "k", func(context.Context) (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("after panic: (%v, %v, %v), want (ok, false, nil)", v, hit, err)
	}
}

// TestDoCtxDeadCallerStartsNothing: a caller whose context has already
// fired gets the context's error on a miss without starting or joining a
// computation and without moving a counter, yet may still take a cached
// value.
func TestDoCtxDeadCallerStartsNothing(t *testing.T) {
	s := NewStore(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, hit, err := s.DoCtx(ctx, "k", func(context.Context) (any, error) { return 1, nil })
	if !errors.Is(err, context.Canceled) || hit {
		t.Fatalf("dead caller on a miss: (hit=%v, err=%v), want (false, Canceled)", hit, err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("stats = %+v, want all zero", st)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("a dead caller's computation landed in the cache")
	}
	s.Put("k", 7)
	if v, hit, err := s.DoCtx(ctx, "k", nil); err != nil || !hit || v != 7 {
		t.Fatalf("dead caller on a hit: (%v, %v, %v), want (7, true, nil)", v, hit, err)
	}
}

// TestCoverCtxCancelledNotPoisoned: a cancelled CoverCtx returns the
// context's error and leaves the cache clean — the same instance then
// plans successfully.
func TestCoverCtxCancelledNotPoisoned(t *testing.T) {
	p := New(8)
	in := instance.AllToAll(9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.CoverCtx(ctx, in, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CoverCtx err = %v, want Canceled", err)
	}
	res, _, err := p.CoverCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatalf("cache poisoned by cancelled request: %v", err)
	}
	if res.Covering == nil || !res.Optimal {
		t.Fatalf("recovery plan: covering=%v optimal=%v", res.Covering, res.Optimal)
	}
}

// TestCoverCtxStrategySignatures: distinct strategies occupy distinct
// cache entries — a portfolio answer is never served to an exact-search
// request — while the empty default shares nothing with named ones.
func TestCoverCtxStrategySignatures(t *testing.T) {
	p := New(16)
	in := instance.AllToAll(9)
	for _, strat := range []string{"", "portfolio", "exact", "greedy"} {
		res, hit, err := p.CoverCtx(context.Background(), in, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("strategy %q: %v", strat, err)
		}
		if hit {
			t.Fatalf("strategy %q: hit on first request — signatures collide", strat)
		}
		if res.Covering == nil {
			t.Fatalf("strategy %q: nil covering", strat)
		}
	}
	if _, _, err := p.CoverCtx(context.Background(), in, Options{Strategy: "bogus"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// Errors (unknown strategy) are not cached.
	if _, _, err := p.CoverCtx(context.Background(), in, Options{Strategy: "bogus"}); err == nil {
		t.Fatal("unknown strategy accepted on retry")
	}
}

// cancellingStrategy cancels its caller's context and then returns a
// valid covering: a build whose last waiter leaves just as the strategy
// finishes.
type cancellingStrategy struct {
	name   string
	cancel context.CancelFunc
}

func (s cancellingStrategy) Name() string { return s.name }

func (s cancellingStrategy) Solve(_ context.Context, in instance.Instance, _ construct.Options) (construct.Outcome, error) {
	s.cancel()
	return construct.Outcome{Covering: construct.Odd(in.N()), Method: construct.MethodOdd, Optimal: true, Strategy: s.name}, nil
}

// cancellingSeq keeps registered strategy names unique across -count runs.
var cancellingSeq atomic.Int64

// TestBuildCoverCancelledSkipsVerify: a build whose ctx fired while its
// strategy ran stops when the strategy returns. The covering is neither
// verified nor cached, and the build reports the context's error.
func TestBuildCoverCancelledSkipsVerify(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := cancellingStrategy{name: fmt.Sprintf("test-cancelling-%d", cancellingSeq.Add(1)), cancel: cancel}
	if err := construct.RegisterStrategy(st); err != nil {
		t.Fatal(err)
	}
	res, err := buildCover(ctx, instance.AllToAll(9), Options{Strategy: st.name})
	if !errors.Is(err, context.Canceled) || res.Covering != nil {
		t.Fatalf("buildCover after ctx fired: covering %v, err = %v; want no covering and context.Canceled",
			res.Covering != nil, err)
	}
}
