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

// TestPoolSubmitRacesClose: submissions racing Close onto a small queue
// are never stranded. Submitters keep submitting until the pool refuses
// them, so Close meets jobs running, buffered, blocked on the full buffer
// and mid-enqueue; every Submit returns its own value or ErrPoolClosed.
func TestPoolSubmitRacesClose(t *testing.T) {
	const rounds, submitters = 50, 16
	for round := 0; round < rounds; round++ {
		p := NewPool(2, 2)
		errs := make(chan error, submitters)
		var started, finished sync.WaitGroup
		started.Add(submitters)
		finished.Add(submitters)
		for i := 0; i < submitters; i++ {
			go func() {
				defer finished.Done()
				started.Done()
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
				}
			}()
		}
		started.Wait()
		p.Close()
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
	}
}
