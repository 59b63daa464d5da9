package main

// Spans of the traced replay. Each span records its layer, start, end,
// parent and request id; spans stay in memory until the replay ends.
// A layer's self time is its span's duration minus its children's.

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// layer is a span name: one module's public entry points.
type layer uint8

const (
	lRequest        layer = iota // the in-process handler, Server.Handler().ServeHTTP
	lParse                       // instance.Parse, ParseDelta, Delta.Apply
	lSignature                   // cache.Signature
	lQueueWait                   // server.Pool.Submit until the job starts
	lCacheHit                    // cache.Plans CoverCtx/NetworkCtx/CoverDeltaCtx, hit
	lCacheMiss                   // the same, miss
	lDeltaResolve                // cache.Plans.ResolveDelta
	lConstructRing               // construct AllToAllCtx, LambdaCtx, GreedyCtx
	lConstructDelta              // construct.DeltaRepair and its greedy budget probe
	lConstructSCC                // construct.GeneralSCCCtx
	lVerify                      // cover.Verify, VerifyGeneral, SCCLowerBound
	lWDMPlan                     // wdm.Plan
	lWDMMetrics                  // wdm.Network Wavelengths, ADMCount, MaxTransit, Cost
	lSweep                       // survive.Simulator.SweepCtx
	lEncode                      // encoding/json of the answer
	nLayers
)

// layerMetric names each layer's self-time metric; the root's self time
// is the handler work no public function reaches (routing, admission,
// form and body parsing, response assembly).
var layerMetric = [nLayers]string{
	lRequest:        "server.self_ms",
	lParse:          "instance.parse_ms",
	lSignature:      "cache.signature_ms",
	lQueueWait:      "server.queue_wait_ms",
	lCacheHit:       "cache.hit_ms",
	lCacheMiss:      "cache.miss_self_ms",
	lDeltaResolve:   "cache.delta_resolve_ms",
	lConstructRing:  "construct.ring_ms",
	lConstructDelta: "construct.delta_ms",
	lConstructSCC:   "construct.scc_ms",
	lVerify:         "cover.verify_ms",
	lWDMPlan:        "wdm.plan_ms",
	lWDMMetrics:     "wdm.metrics_ms",
	lSweep:          "survive.sweep_ms",
	lEncode:         "server.encode_ms",
}

type span struct {
	req        int32
	parent     int32 // index in the request's spans; -1 for the root
	layer      layer
	failed     bool
	start, end int64 // ns since the replay began
}

// reqTrace collects one request's spans. Batch items and pool jobs add
// spans from other goroutines, hence the lock.
type reqTrace struct {
	mu    sync.Mutex
	epoch time.Time
	id    int32
	spans []span
	// later holds out-of-line child measurements queued by pool jobs,
	// run on the request's own goroutine once the job has answered so
	// they never hold a pool worker.
	later []func()
	// Counts the ratio metrics need.
	sccMisses, sccOptimal int
	deltaMisses, repaired int
	scenarios             int
}

func (t *reqTrace) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns its index.
func (t *reqTrace) open(parent int, l layer) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{req: t.id, parent: int32(parent), layer: l, start: t.now()})
	return len(t.spans) - 1
}

func (t *reqTrace) close(i int, err error) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	t.spans[i].failed = err != nil
	t.mu.Unlock()
}

// add records a span measured elsewhere.
func (t *reqTrace) add(parent int, l layer, start, end int64, err error) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{req: t.id, parent: int32(parent), layer: l, start: start, end: end, failed: err != nil})
	return len(t.spans) - 1
}

// do times f as a span under parent and returns f's error.
func (t *reqTrace) do(parent int, l layer, f func() error) error {
	i := t.open(parent, l)
	err := f()
	t.close(i, err)
	return err
}

func (t *reqTrace) defer_(f func()) {
	t.mu.Lock()
	t.later = append(t.later, f)
	t.mu.Unlock()
}

func (t *reqTrace) runLater() {
	for {
		t.mu.Lock()
		if len(t.later) == 0 {
			t.mu.Unlock()
			return
		}
		f := t.later[0]
		t.later = t.later[1:]
		t.mu.Unlock()
		f()
	}
}

// layerStat sums one layer over the timed replay.
type layerStat struct {
	self          int64 // ns
	calls, failed int
}

// summary aggregates the spans of the timed replay.
type summary struct {
	layers      [nLayers]layerStat
	rootTotal   int64 // Σ root durations, ns
	requests    int
	queueWaits  []float64 // ms, each Submit
	unparented  int
	respBytes   int64
	sccMisses   int
	sccOptimal  int
	deltaMisses int
	repaired    int
	scenarios   int
}

func (s *summary) addRequest(t *reqTrace, bodyBytes int) {
	s.requests++
	s.respBytes += int64(bodyBytes)
	s.sccMisses += t.sccMisses
	s.sccOptimal += t.sccOptimal
	s.deltaMisses += t.deltaMisses
	s.repaired += t.repaired
	s.scenarios += t.scenarios
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		} else if sp.layer != lRequest {
			s.unparented++
		}
	}
	for i, sp := range t.spans {
		d := sp.end - sp.start
		st := &s.layers[sp.layer]
		st.self += d - child[i]
		st.calls++
		if sp.failed {
			st.failed++
		}
		if sp.layer == lRequest {
			s.rootTotal += d
		}
		if sp.layer == lQueueWait {
			s.queueWaits = append(s.queueWaits, float64(d)/1e6)
		}
	}
}

// selfTotal is Σ self over every layer; by construction it equals
// rootTotal when every span hangs under its request's root.
func (s *summary) selfTotal() int64 {
	t := int64(0)
	for _, st := range s.layers {
		t += st.self
	}
	return t
}

func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w, "%-24s %12s %10s %8s %8s\n", "layer", "self ms/req", "self %", "calls", "failed")
	for l := layer(0); l < nLayers; l++ {
		st := s.layers[l]
		fmt.Fprintf(w, "%-24s %12.4f %9.1f%% %8d %8d\n", layerMetric[l], float64(st.self)/1e6/float64(s.requests),
			100*ratio(float64(st.self), float64(s.rootTotal)), st.calls, st.failed)
	}
	fmt.Fprintf(w, "%-24s %12.4f %9.1f%% %8d\n", "Σ self = request", float64(s.selfTotal())/1e6/float64(s.requests),
		100*ratio(float64(s.selfTotal()), float64(s.rootTotal)), s.requests)
}
