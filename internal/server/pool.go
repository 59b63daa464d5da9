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

// Pool is a bounded executor. At most `workers` jobs run at once and at
// most `queue` more wait in its buffer; a further submission blocks until
// buffer space frees, its context fires, or the pool closes. Each job runs
// under its submitter's context, behind the pool's recover boundary. The
// pool never deduplicates: identical concurrent jobs each run, and the
// covering cache's single flight shares the work they have in common.
type Pool struct {
	jobs     chan *poolJob
	quit     chan struct{} // closed by Close: wakes blocked submitters, stops the workers
	stopOnce sync.Once
	wg       sync.WaitGroup
	workers  int

	// closeMu orders enqueues against Close. Submit holds it shared from
	// its closed check through its send; Close holds it exclusively while
	// it sets closed, after closing quit has woken every submitter blocked
	// on a full buffer. From then on no job can enter the queue, so once
	// the workers exit, what they left there is all Close must fail.
	// Workers never take closeMu: a submitter blocked on a full buffer
	// holds it while it waits for them.
	closeMu sync.RWMutex
	closed  bool

	// blocked counts submitters waiting on a full buffer, so QueueDepth
	// sees the backlog past the buffer's capacity.
	blocked atomic.Int64

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
	ctx  context.Context // the submitter's: fires when it gives up
	run  func(context.Context) (any, error)
	done chan struct{}
	val  any
	err  error
}

// NewPool starts a pool with the given worker count and queue bound.
// workers ≤ 0 selects GOMAXPROCS; queue 0 selects 64, negative selects
// an unbuffered queue.
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case queue == 0:
		queue = 64
	case queue < 0:
		queue = 0
	}
	p := &Pool{
		jobs:    make(chan *poolJob, queue),
		quit:    make(chan struct{}),
		workers: workers,
		panics:  make(map[string]uint64),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit runs fn on a worker and returns its result. It blocks until the
// result is ready, ctx is done, or the pool closes. fn receives ctx, so a
// submitter that gives up returns ctx's error at once and its job is
// cancelled mid-run, or skipped if still queued. The string argument is
// ignored; it stays in the signature so that existing callers, such as
// _perfbench's traced replay (a separate module), compile unchanged.
func (p *Pool) Submit(ctx context.Context, _ string, fn func(context.Context) (any, error)) (any, error) {
	j := &poolJob{ctx: ctx, run: fn, done: make(chan struct{})}
	if err := p.enqueue(j); err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		return j.val, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// enqueue puts j in the queue, waiting for buffer space while its
// context and the pool allow. A submitter counts as blocked only after a
// non-blocking send has failed: a job handed straight to an idle worker,
// or into free buffer space, never waited.
func (p *Pool) enqueue(j *poolJob) error {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.jobs <- j:
		return nil
	default:
	}
	p.blocked.Add(1)
	defer p.blocked.Add(-1)
	select {
	case p.jobs <- j:
		return nil
	case <-j.ctx.Done():
		return j.ctx.Err()
	case <-p.quit:
		return ErrPoolClosed
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case j := <-p.jobs:
			// A job whose submitter gave up while it sat in the queue is
			// skipped outright: nobody will read the result, so running it
			// would only burn the worker.
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
		case <-p.quit:
			return
		}
	}
}

// runJob executes one job on a worker behind the pool's containment
// boundary: a panic escaping the computation is recovered into a
// fingerprinted *construct.PanicError that fails only this job — the
// worker survives, every other queued job still runs, and the daemon
// keeps serving. (A goroutine a job spawns is out of this recover's
// reach; the cache's single flight, the one place below the pool that
// starts one, recovers inside it.)
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

// Close stops the workers and fails every job that never ran with
// ErrPoolClosed; a Submit racing it returns its own result or
// ErrPoolClosed. Callers should drain in-flight HTTP traffic
// (http.Server.Shutdown) before closing the pool so no handler is left
// waiting.
func (p *Pool) Close() {
	p.stopOnce.Do(func() {
		close(p.quit)
		p.closeMu.Lock()
		p.closed = true
		p.closeMu.Unlock()
		p.wg.Wait()
		for len(p.jobs) > 0 {
			j := <-p.jobs
			j.err = ErrPoolClosed
			close(j.done)
		}
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
// the signal the admission layer sheds on: the buffered jobs plus the
// submitters blocked on a full buffer.
func (p *Pool) QueueDepth() int { return len(p.jobs) + int(p.blocked.Load()) }

// Workers reports the worker count. The benchmark's traced replay reads
// it to size its mirror of /plan/batch.
func (p *Pool) Workers() int { return p.workers }

// Closed reports whether the pool has stopped accepting work (/readyz).
func (p *Pool) Closed() bool {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	return p.closed
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
