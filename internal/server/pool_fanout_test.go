package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/fanout"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// TestPoolStampsFanOutShare verifies that every pool job runs under a
// context stamped with its fair share of the cores, and that the share
// shrinks with pool occupancy: of two jobs verified to run concurrently,
// the one stamped second saw occupancy 2 and got at most half the
// machine. On a single-core host both shares are 1, which the bounds
// below still pin.
func TestPoolStampsFanOutShare(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	p := NewPool(2, 4)
	defer p.Close()

	// Both jobs hold at a barrier until the other has started, so the
	// later-stamped one is guaranteed to have observed occupancy 2.
	var started sync.WaitGroup
	started.Add(2)
	release := make(chan struct{})
	shares := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		sig := string(rune('a' + i))
		go func() {
			defer wg.Done()
			_, err := p.Submit(context.Background(), sig, func(jctx context.Context) (any, error) {
				shares <- fanout.Limit(jctx)
				started.Done()
				<-release
				return nil, nil
			})
			if err != nil {
				t.Errorf("Submit(%s): %v", sig, err)
			}
		}()
	}
	started.Wait()
	close(release)
	wg.Wait()
	close(shares)

	var got []int
	min := cores + 1
	for s := range shares {
		got = append(got, s)
		if s < 1 || s > cores {
			t.Fatalf("job stamped with share %d, want within [1, %d]", s, cores)
		}
		if s < min {
			min = s
		}
	}
	if len(got) != 2 {
		t.Fatalf("saw %d stamped jobs, want 2", len(got))
	}
	if want := fanout.Share(cores, 2); min > want {
		t.Fatalf("concurrent jobs stamped %v; the later one should get ≤ %d", got, want)
	}
}

// fanoutProbe is a strategy that records the fan-out stamp its Solve
// runs under, then answers with the greedy sweep.
type fanoutProbe struct {
	name  string
	limit *atomic.Int64
}

func (p fanoutProbe) Name() string { return p.name }

func (p fanoutProbe) Solve(ctx context.Context, in instance.Instance, opts construct.Options) (construct.Outcome, error) {
	p.limit.Store(int64(fanout.Limit(ctx)))
	return construct.GreedySweep{}.Solve(ctx, in, opts)
}

// TestPoolFanOutShareReachesCachedConstruction: the pool's stamp must
// survive the cache's single flight into the strategy it runs, or a
// parallel stage inside a cached construction fans out over GOMAXPROCS
// per job (DESIGN.md §8.3).
func TestPoolFanOutShareReachesCachedConstruction(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	probe := fanoutProbe{name: fmt.Sprintf("fanout-probe-%d", testStrategySeq.Add(1)), limit: &atomic.Int64{}}
	if err := construct.RegisterStrategy(probe); err != nil {
		t.Fatal(err)
	}

	if resp, body := get(t, ts.URL+"/plan?n=9&strategy="+probe.name); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got, cores := probe.limit.Load(), runtime.GOMAXPROCS(0); got < 1 || got > int64(cores) {
		t.Fatalf("cached construction ran under fan-out limit %d, want a pool share in [1, %d]", got, cores)
	}
}
