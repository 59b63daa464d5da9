// Package server exposes the planner over HTTP/JSON: /plan, /plan/batch,
// /plan/delta, /simulate and /verify for the work itself, /healthz and
// /metrics for operations.
// Requests are executed by a bounded worker pool and results are
// memoized by the covering cache, whose single flight is the one place
// identical concurrent work is shared: a burst of identical traffic
// takes one worker per request but costs one construction. See
// DESIGN.md §5.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/faultinject"
)

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("server: worker pool closed")

// Pool is a bounded executor. At most `workers` jobs run at once; Submit
// hands a job straight to an idle worker, and while none is idle its
// submitter waits in Submit until one is, its context fires, or the pool
// closes. Each job runs under its submitter's context, behind the pool's
// recover boundary. The pool never deduplicates: identical concurrent
// jobs each run, and the covering cache's single flight shares the work
// they have in common.
type Pool struct {
	jobs     chan *poolJob // unbuffered: a send is a handoff to a worker
	quit     chan struct{} // closed by Close: wakes waiting submitters, stops the workers
	stopOnce sync.Once
	wg       sync.WaitGroup
	workers  int

	// backlog is the submitters waiting in Submit minus the idle workers,
	// so its positive part is the queue depth the admission layer sheds
	// on. It starts at −workers: a worker counts as idle from before its
	// goroutine first runs, and a submitter that misses a worker not yet
	// back at its receive is one that worker is about to take. A
	// submitter adds one while it waits; a worker adds one when it takes
	// a job nobody waited for (a waited job's +1 passes from submitter to
	// worker) and removes one when it finishes a job.
	backlog atomic.Int64

	mu       sync.Mutex
	executed uint64
	// panics counts recovered panics per fingerprint (construct.PanicError
	// from any containment layer — the pool's own boundary, the cache's
	// compute goroutine, or a strategy guard), counted once per failed
	// job. panicsTotal is their sum; both feed /metrics.
	panics      map[string]uint64
	panicsTotal uint64
	// running counts jobs currently executing on a worker
	// (PoolStats.Running).
	running int
}

type poolJob struct {
	ctx    context.Context // the submitter's: fires when it gives up
	run    func(context.Context) (any, error)
	waited bool // its submitter counted itself in Pool.backlog
	done   chan struct{}
	val    any
	err    error
}

// NewPool starts a pool with the given worker count; workers ≤ 0 selects
// GOMAXPROCS. queue is ignored: a job waits in Submit, not in a buffer.
// It stays in the signature so that existing callers, such as
// _perfbench's traced replay (a separate module), compile unchanged.
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		jobs:    make(chan *poolJob),
		quit:    make(chan struct{}),
		workers: workers,
		panics:  make(map[string]uint64),
	}
	p.backlog.Store(-int64(workers))
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Submit runs fn on a worker and returns its result. It blocks until the
// result is ready, ctx is done, or the pool closes. fn receives ctx, so a
// submitter that gives up returns ctx's error at once and its job is
// cancelled mid-run, or skipped if no worker has started it. A job an
// idle worker takes at once never waits; a submitter that finds no
// worker receiving waits, and counts in QueueDepth while every worker is
// busy. The string argument is ignored; it stays in the signature so
// that existing callers, such as _perfbench's traced replay (a separate
// module), compile unchanged.
func (p *Pool) Submit(ctx context.Context, _ string, fn func(context.Context) (any, error)) (any, error) {
	j := &poolJob{ctx: ctx, run: fn, done: make(chan struct{})}
	select {
	case p.jobs <- j:
	default:
		// No worker is receiving: wait for the next one that comes free.
		j.waited = true
		p.backlog.Add(1)
		select {
		case p.jobs <- j:
		case <-ctx.Done():
			p.backlog.Add(-1)
			return nil, ctx.Err()
		case <-p.quit:
			p.backlog.Add(-1)
			return nil, ErrPoolClosed
		}
	}
	select {
	case <-j.done:
		return j.val, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case j := <-p.jobs:
			if !j.waited {
				p.backlog.Add(1)
			}
			// A job whose submitter gave up while it waited for this worker
			// is skipped outright: nobody will read the result, so running
			// it would only burn the worker.
			if err := j.ctx.Err(); err != nil {
				j.err = err
			} else {
				p.mu.Lock()
				p.running++
				p.mu.Unlock()
				j.val, j.err = p.runJob(j)
				p.mu.Lock()
				p.running--
				p.mu.Unlock()
			}
			p.mu.Lock()
			p.executed++
			// Count recovered panics once per failed job, wherever the
			// containment boundary that caught them lives.
			var pe *construct.PanicError
			if errors.As(j.err, &pe) {
				p.panics[pe.Fingerprint]++
				p.panicsTotal++
			}
			p.mu.Unlock()
			close(j.done)
			p.backlog.Add(-1)
		case <-p.quit:
			return
		}
	}
}

// runJob executes one job on a worker behind the pool's containment
// boundary: a panic escaping the computation is recovered into a
// fingerprinted *construct.PanicError that fails only this job — the
// worker survives, every waiting job still runs, and the daemon keeps
// serving. (A goroutine a job spawns is out of this recover's reach; the
// cache's single flight, the one place below the pool that starts one,
// recovers inside it.)
func (p *Pool) runJob(j *poolJob) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, construct.Recovered("pool", r)
		}
	}()
	//cyclecover:faultpoint pool dispatch: chaos suite injects worker-side latency and errors here
	if err := faultinject.Inject(faultinject.SitePoolDispatch); err != nil {
		return nil, fmt.Errorf("server: pool dispatch: %w", err)
	}
	return j.run(j.ctx)
}

// Close stops the pool: a running job finishes, and a submitter still
// waiting for a worker gets ErrPoolClosed, as does every Submit after
// Close returns; a Submit racing Close returns its own result or
// ErrPoolClosed.
// Callers should drain in-flight HTTP traffic (http.Server.Shutdown)
// before closing the pool so no handler is left waiting.
func (p *Pool) Close() {
	p.stopOnce.Do(func() {
		close(p.quit)
		p.wg.Wait()
	})
}

// PoolStats reports pool traffic: jobs executed by workers, current
// occupancy (running jobs and queued depth — the admission layer's shed
// signal), and panics recovered at any containment boundary.
type PoolStats struct {
	Executed        uint64 `json:"executed"`
	Running         int    `json:"running"`
	QueueDepth      int    `json:"queueDepth"`
	PanicsRecovered uint64 `json:"panicsRecovered"`
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Executed:        p.executed,
		Running:         p.running,
		QueueDepth:      p.QueueDepth(),
		PanicsRecovered: p.panicsTotal,
	}
}

// QueueDepth reports how many jobs are waiting for a worker right now —
// the signal the admission layer sheds on: the submitters waiting in
// Submit beyond the idle workers about to take them.
func (p *Pool) QueueDepth() int { return max(0, int(p.backlog.Load())) }

// Workers reports the worker count. The benchmark's traced replay reads
// it to size its mirror of /plan/batch.
func (p *Pool) Workers() int { return p.workers }

// Closed reports whether the pool has stopped accepting work (/readyz).
func (p *Pool) Closed() bool {
	select {
	case <-p.quit:
		return true
	default:
		return false
	}
}

// Panics returns a copy of the per-fingerprint recovered-panic counters.
func (p *Pool) Panics() map[string]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := make(map[string]uint64, len(p.panics))
	//cyclecover:nondet map copy; consumers sort the keys before emission
	for k, v := range p.panics {
		m[k] = v
	}
	return m
}
