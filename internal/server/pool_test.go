package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolBoundedConcurrency proves no more than `workers` jobs ever run
// at once.
func TestPoolBoundedConcurrency(t *testing.T) {
	const workers = 2
	p := NewPool(workers, 64)
	defer p.Close()

	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := p.Submit(context.Background(), fmt.Sprintf("job-%d", i), func(context.Context) (any, error) {
				now := running.Add(1)
				for {
					old := peak.Load()
					if now <= old || peak.CompareAndSwap(old, now) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				running.Add(-1)
				return i, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", got, workers)
	}
	if st := p.Stats(); st.Executed != 20 {
		t.Fatalf("executed = %d, want 20", st.Executed)
	}
}

func TestPoolSubmitHonorsContext(t *testing.T) {
	p := NewPool(1, -1) // unbuffered: the second submit must queue behind the blocker
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	go p.Submit(context.Background(), "blocker", func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started // the only worker is now occupied
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := p.Submit(ctx, "waits-forever", func(context.Context) (any, error) { return nil, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	close(block)
}

func TestPoolCloseFailsPending(t *testing.T) {
	p := NewPool(1, 8)
	release := make(chan struct{})
	go p.Submit(context.Background(), "running", func(context.Context) (any, error) {
		<-release
		return nil, nil
	})
	time.Sleep(5 * time.Millisecond)
	close(release)
	p.Close()
	if _, err := p.Submit(context.Background(), "late", func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after close = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// TestPoolSubmitRacesClose: submissions racing Close are never
// stranded. Submitters keep submitting until the pool refuses them, and
// the submitter whose job is the closeAt-th to return closes the pool,
// so Close meets jobs running, submitters waiting for a worker and
// handoffs in progress; every Submit returns its own value or
// ErrPoolClosed. Closing from a submitter, not from the test goroutine,
// keeps a round short at GOMAXPROCS=1, where the submitters' handoffs
// would keep a goroutine that only waits for its turn off the CPU for
// hundreds of milliseconds. closeAt steps through 1…2·submitters so the
// rounds meet Close at different depths of traffic.
func TestPoolSubmitRacesClose(t *testing.T) {
	const rounds, submitters = 50, 16
	for round := 0; round < rounds; round++ {
		p := NewPool(2, 2)
		closeAt := int64(1 + round%(2*submitters))
		var returned atomic.Int64
		errs := make(chan error, submitters)
		var finished sync.WaitGroup
		finished.Add(submitters)
		for i := 0; i < submitters; i++ {
			go func() {
				defer finished.Done()
				for k := 0; ; k++ {
					want := i<<16 | k
					v, err := p.Submit(context.Background(), "", func(context.Context) (any, error) { return want, nil })
					switch {
					case errors.Is(err, ErrPoolClosed):
						return
					case err != nil || v != want:
						errs <- fmt.Errorf("submitter %d job %d: got (%v, %v), want %d", i, k, v, err, want)
						return
					}
					if returned.Add(1) == closeAt {
						p.Close()
					}
				}
			}()
		}
		allReturned := make(chan struct{})
		go func() { finished.Wait(); close(allReturned) }()
		select {
		case <-allReturned:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: a Submit was stranded by Close", round)
		}
		close(errs)
		for err := range errs {
			t.Errorf("round %d: %v", round, err)
		}
		if !p.Closed() {
			t.Errorf("round %d: the pool was never closed", round)
		}
	}
}

// TestPoolWaitingSubmitterLeaves: with the only worker busy, a second
// submitter waits in Submit and counts in QueueDepth. It leaves with its
// context's error, or with ErrPoolClosed when the pool closes, and its
// job never runs; the running job still finishes.
func TestPoolWaitingSubmitterLeaves(t *testing.T) {
	for _, leave := range []string{"ctx", "close"} {
		t.Run(leave, func(t *testing.T) {
			p := NewPool(1, 0)
			defer p.Close()
			block := make(chan struct{})
			unblock := sync.OnceFunc(func() { close(block) })
			defer unblock() // before Close, which waits for the running job
			started := make(chan struct{})
			blocker := make(chan error, 1)
			go func() {
				v, err := p.Submit(context.Background(), "", func(context.Context) (any, error) {
					close(started)
					<-block
					return "blocker", nil
				})
				if err == nil && v != "blocker" {
					err = fmt.Errorf("blocker returned %v", v)
				}
				blocker <- err
			}()
			<-started // the only worker is now occupied

			var ran atomic.Bool
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			waiter := make(chan error, 1)
			go func() {
				_, err := p.Submit(ctx, "", func(context.Context) (any, error) {
					ran.Store(true)
					return nil, nil
				})
				waiter <- err
			}()
			deadline := time.Now().Add(5 * time.Second)
			for p.QueueDepth() != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("queue depth %d with one submitter waiting, want 1", p.QueueDepth())
				}
				time.Sleep(time.Millisecond)
			}

			want := context.Canceled
			closed := make(chan struct{})
			if leave == "ctx" {
				cancel()
			} else {
				want = ErrPoolClosed
				go func() { p.Close(); close(closed) }()
			}
			select {
			case err := <-waiter:
				if !errors.Is(err, want) {
					t.Fatalf("waiting submitter got %v, want %v", err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waiting submitter never left")
			}
			if d := p.QueueDepth(); d != 0 {
				t.Fatalf("queue depth %d after the submitter left, want 0", d)
			}

			unblock()
			if err := <-blocker; err != nil {
				t.Fatalf("running job: %v", err)
			}
			wantExecuted := uint64(1) // the blocker: no worker took the abandoned job
			if leave == "ctx" {
				// The worker is free again; once it has run a later job it is
				// past any chance of picking up the abandoned one.
				if _, err := p.Submit(context.Background(), "", func(context.Context) (any, error) { return nil, nil }); err != nil {
					t.Fatal(err)
				}
				wantExecuted++
			} else {
				<-closed
			}
			if ran.Load() {
				t.Fatal("the abandoned job ran")
			}
			if ex := p.Stats().Executed; ex != wantExecuted {
				t.Fatalf("executed %d jobs, want %d", ex, wantExecuted)
			}
		})
	}
}
