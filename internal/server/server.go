package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/scratch"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// MaxRingSize bounds the ring sizes the service accepts. The demand
// graph and covering are Θ(n²), so n must be validated before any
// instance is materialized — and building K_n for an attacker-chosen n
// would otherwise happen on the handler goroutine, outside the pool's
// admission control.
const MaxRingSize = 1024

// MaxRequests bounds a demand's request count (with multiplicity):
// covering size and response size scale with it, so an in-range n
// combined with a huge λ (demand=lambda:<big>) must still be rejected
// before construction. K_MaxRingSize fits; λ ≥ 2 at the largest rings
// does not.
const MaxRequests = 1 << 20

// maxVerifyBody bounds the /verify request body; a valid covering for
// MaxRingSize fits comfortably.
const maxVerifyBody = 8 << 20

// checkRingSize validates n before anything Θ(n²) is built from it.
func checkRingSize(n int) error {
	if _, err := ring.New(n); err != nil {
		return err
	}
	if n > MaxRingSize {
		return fmt.Errorf("server: ring size %d exceeds limit %d", n, MaxRingSize)
	}
	return nil
}

// checkDemandSize validates a parsed instance's total workload. A
// negative count means the multiplicity sum overflowed, which is as
// oversized as it gets.
func checkDemandSize(in instance.Instance) error {
	if m := in.Requests(); m > MaxRequests || m < 0 {
		return fmt.Errorf("server: demand has %d requests, limit %d", m, MaxRequests)
	}
	return nil
}

// parseInstance validates one request's ring size, demand spec (empty
// means alltoall) and strategy name (empty means the default pipeline),
// then builds its instance. n is checked before anything Θ(n²) is built.
// Every error is a client-side input problem: the caller answers 400.
func parseInstance(n int, spec, strategy string) (instance.Instance, error) {
	if err := checkRingSize(n); err != nil {
		return instance.Instance{}, err
	}
	if spec == "" {
		spec = "alltoall"
	}
	if strategy != "" {
		if _, ok := construct.LookupStrategy(strategy); !ok {
			return instance.Instance{}, fmt.Errorf("unknown strategy %q (have %s, or omit for the default pipeline)", strategy, strings.Join(construct.Strategies(), ", "))
		}
	}
	in, err := instance.Parse(n, spec)
	if err != nil {
		return instance.Instance{}, err
	}
	if err := checkDemandSize(in); err != nil {
		return instance.Instance{}, err
	}
	return in, nil
}

// formN reads the required ring size parameter n of /plan and /simulate.
func formN(r *http.Request) (int, error) {
	nStr := r.FormValue("n")
	if nStr == "" {
		return 0, errors.New("missing required parameter n")
	}
	n, err := strconv.Atoi(nStr)
	if err != nil {
		return 0, fmt.Errorf("bad n %q: %v", nStr, err)
	}
	return n, nil
}

// Config sizes a Server. Zero values select sensible defaults.
type Config struct {
	// CacheSize bounds each store of the covering cache (0 →
	// cache.DefaultCapacity).
	CacheSize int
	// Workers bounds concurrent plan computations (0 → GOMAXPROCS).
	Workers int
	// Queue is ignored: a computation waits for a worker in Pool.Submit,
	// not in a buffer, and MaxQueue bounds how many wait. It stays so that
	// existing callers, such as _perfbench's traced replay (a separate
	// module), compile unchanged.
	Queue int
	// PlanTimeout bounds each plan request (for /plan/batch: the whole
	// request — all its items share the deadline). On expiry the caller
	// gets 504 with a structured body, the waiter detaches, and the
	// underlying construction is cancelled mid-search once no other
	// caller wants it. 0 disables the deadline.
	PlanTimeout time.Duration
	// MaxInflight caps concurrently admitted requests per work endpoint
	// (/plan, /plan/batch, /plan/delta, /simulate, /verify). Past the
	// cap the endpoint sheds with a structured 429 and a Retry-After
	// hint derived from observed job latency. 0 disables the cap.
	MaxInflight int
	// MaxQueue sheds new work while at least this many jobs wait for a
	// worker (Pool.QueueDepth), bounding how much latency the queue can
	// accumulate ahead of an admitted request. 0 disables the check.
	MaxQueue int
	// Degrade enables deadline-aware graceful degradation: when a
	// request's remaining context budget is smaller than the measured
	// cost estimate of the full pipeline, the plan is built by the
	// anytime portfolio instead (marked degraded:true, cached under its
	// own signature dimension); when even that estimate does not fit, a
	// verified stale cache hit is served with X-Degraded: stale.
	Degrade bool
}

// Server is the planner service: HTTP handlers over a covering cache and
// a bounded worker pool. Create with New, expose with Handler, stop with
// Close (after draining HTTP traffic).
type Server struct {
	plans       *cache.Plans
	pool        *Pool
	mux         *http.ServeMux
	routes      []route // the route table, in path order (New)
	start       time.Time
	planTimeout time.Duration
	adm         *admission
	costs       *costModel
	degrade     bool

	// ready and draining drive /readyz: ready flips false until the
	// embedding process finishes startup work (SetReady), draining flips
	// true when graceful shutdown begins (StartDrain) so load balancers
	// stop routing here while in-flight requests finish.
	ready    atomic.Bool
	draining atomic.Bool

	// degraded counts degrade decisions; degradedStale the subset
	// answered from a verified stale cache entry.
	degraded      atomic.Uint64
	degradedStale atomic.Uint64
}

// route is one entry of the route table (New): an endpoint, served by
// serve.
type route struct {
	path    string
	methods []string // the methods the route takes, as its Allow header lists them; nil takes any
	work    bool     // admission applies: in-flight cap and queue-depth shedding
	handle  http.HandlerFunc

	served atomic.Uint64 // every request, a 405 included (/metrics)
	// inflight and shed are guarded by admission.mu.
	inflight int
	shed     uint64
}

var (
	getOrPost = []string{http.MethodGet, http.MethodPost}
	postOnly  = []string{http.MethodPost}
)

// New builds a ready-to-serve planner service.
func New(cfg Config) *Server {
	s := &Server{
		plans:       cache.New(cfg.CacheSize),
		pool:        NewPool(cfg.Workers, cfg.Queue),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		planTimeout: cfg.PlanTimeout,
		degrade:     cfg.Degrade,
		costs:       newCostModel(),
	}
	s.adm = newAdmission(cfg.MaxInflight, cfg.MaxQueue, s.pool)
	s.ready.Store(true)
	// In path order, which is /metrics' order.
	s.routes = []route{
		{path: "/healthz", handle: s.handleLivez}, // alias: /healthz is the historical liveness path
		{path: "/livez", handle: s.handleLivez},
		{path: "/metrics", handle: s.handleMetrics},
		{path: "/plan", methods: getOrPost, work: true, handle: s.handlePlan},
		{path: "/plan/batch", methods: postOnly, work: true, handle: s.handlePlanBatch},
		{path: "/plan/delta", methods: postOnly, work: true, handle: s.handlePlanDelta},
		{path: "/readyz", handle: s.handleReadyz},
		{path: "/simulate", methods: getOrPost, work: true, handle: s.handleSimulate},
		{path: "/verify", methods: postOnly, work: true, handle: s.handleVerify},
	}
	for i := range s.routes {
		rt := &s.routes[i]
		s.mux.HandleFunc(rt.path, func(w http.ResponseWriter, r *http.Request) { s.serve(rt, w, r) })
	}
	return s
}

// serve is the front door: every request enters here. It counts the
// request first, so a 405 is counted too; refuses a method the route
// does not take; admits a work request or sheds it with a 429 naming the
// route; and runs the route's handler, releasing the admission after.
func (s *Server) serve(rt *route, w http.ResponseWriter, r *http.Request) {
	rt.served.Add(1)
	if rt.methods != nil && !slices.Contains(rt.methods, r.Method) {
		w.Header().Set("Allow", strings.Join(rt.methods, ", "))
		writeError(w, http.StatusMethodNotAllowed, "use %s", strings.Join(rt.methods, " or "))
		return
	}
	if rt.work {
		retry, ok := s.adm.acquire(rt)
		if !ok {
			writeShed(w, rt.path, retry)
			return
		}
		defer s.adm.release(rt)
	}
	rt.handle(w, r)
}

// route returns the table entry for path.
func (s *Server) route(path string) *route {
	for i := range s.routes {
		if s.routes[i].path == path {
			return &s.routes[i]
		}
	}
	panic("server: no route " + path)
}

// SetReady flips the /readyz verdict. The embedding process calls
// SetReady(false) before long startup work (snapshot warming) and
// SetReady(true) once the service should receive traffic. Servers start
// ready, so embedded and test uses need no ceremony.
func (s *Server) SetReady(ok bool) { s.ready.Store(ok) }

// StartDrain marks the server as draining: /readyz answers 503 so load
// balancers route away, while in-flight and even new requests still
// complete. Call it before http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Plans exposes the covering cache (shared with any embedding process).
func (s *Server) Plans() *cache.Plans { return s.plans }

// Close stops the worker pool. Drain HTTP traffic first.
func (s *Server) Close() { s.pool.Close() }

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// timeoutBody is the JSON shape of a 504: the error plus the deadline
// that expired, so clients can distinguish a configured plan timeout
// from other unavailability and size their retry accordingly.
type timeoutBody struct {
	Error   string `json:"error"`
	Timeout string `json:"timeout"`
}

// planContext derives the execution context for a plan request: the
// request's own context (fires on client disconnect) bounded by the
// configured plan timeout, when one is set.
func (s *Server) planContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.planTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.planTimeout)
}

// respBufs recycles response encode buffers together with their
// indenting encoders (the same scratch-pool type the sweep engine and the
// verifier use for their hot-path state), so a response costs one
// buffered encode and one Write, and reuses the encoder's indent buffer
// instead of growing a fresh one per call.
var respBufs = scratch.NewPool(func() *respBuf {
	b := &respBuf{}
	b.enc = json.NewEncoder(&b.buf)
	b.enc.SetIndent("", "  ")
	return b
})

// respBuf is a pooled response buffer and the encoder that writes to it.
type respBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b := respBufs.Get()
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		// Encoding failed before anything was written: the error is still
		// reportable as a clean 500.
		respBufs.Put(b)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b.buf.Bytes())
	respBufs.Put(b)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// jobStatus maps a failed pool job's error to the HTTP status it
// answers with: 400 for client-side input problems, 504 when the plan
// deadline expired, 503 while shutting down or when the caller gave up,
// 500 otherwise. Shared by every work endpoint.
func jobStatus(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, construct.ErrNotApplicable):
		// A known strategy that does not address this demand class is
		// a client-side input problem, not a server failure.
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrPoolClosed) || ctx.Err() != nil:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeJobError answers a failed request with status: a 504 carries the
// structured timeout body (§5.5), anything else the plain error body.
func (s *Server) writeJobError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusGatewayTimeout {
		writeJSON(w, status, timeoutBody{Error: err.Error(), Timeout: s.planTimeout.String()})
		return
	}
	writeError(w, status, "%v", err)
}

// planResponse is the JSON shape of a successful /plan.
type planResponse struct {
	Signature string `json:"signature"`
	N         int    `json:"n"`
	Demand    string `json:"demand"`
	Strategy  string `json:"strategy,omitempty"` // non-default only
	Size      int    `json:"size"`
	Rho       int    `json:"rho,omitempty"` // all-to-all demands only
	// Length and SCCLowerBound report the shortest-cycle-cover objective
	// for general-topology instances: total edge count of the cover and
	// the provable lower bound max(m, Σ_v ⌈deg(v)/2⌉). Zero for ring
	// instances, whose objective is the cycle count (Size).
	Length        int  `json:"length,omitempty"`
	SCCLowerBound int  `json:"sccLowerBound,omitempty"`
	Optimal       bool `json:"optimal"`
	// Degraded marks a plan built (or served) under deadline pressure by
	// the anytime portfolio rather than the full pipeline: verified, but
	// with no optimality claim. Stale additionally marks a degraded
	// answer served from a previously cached entry without any new
	// construction (the X-Degraded: stale response).
	Degraded bool   `json:"degraded,omitempty"`
	Stale    bool   `json:"stale,omitempty"`
	Method   string `json:"method"`
	// Cycles is the decoded shape of the answer's cycle list, filled only
	// when an answer is decoded (tests) or built as the encoding/json
	// reference in answer_test.go. The server leaves it nil and writes the
	// list from cycles (answer.go), so a planResponse it built must never
	// go through writeJSON.
	Cycles      [][]int `json:"cycles"`
	Wavelengths int     `json:"wavelengths"`
	ADMs        int     `json:"adms"`
	MaxTransit  int     `json:"maxTransit"`
	Cost        float64 `json:"cost"`
	CacheHit    bool    `json:"cacheHit"`

	// cycles are the covering's cycles, read in place: for a fresh plan
	// the cached covering itself, which must not be modified.
	cycles []cover.Cycle
}

// planned bundles what one pool job computes. res.Covering and nw are
// the cached covering and network, shared and read-only; nw is nil for
// general instances.
type planned struct {
	res cache.CoverResult
	nw  *wdm.Network
	hit bool
}

// planOne validates one (n, demand-spec, strategy) request and computes
// its plan through the worker pool and covering cache. On failure it
// returns the HTTP status the error maps to (400 for malformed input,
// otherwise jobStatus). It is the shared execution path of /plan and
// /plan/batch: each request takes its own worker, and identical requests
// in flight — whether from single or batch callers — share one
// construction through the cache's single flight. ctx cancellation
// propagates all the way into the construction searches: a request that
// times out detaches immediately, and the search itself is aborted once
// no other request wants its result.
func (s *Server) planOne(ctx context.Context, n int, spec, strategy string) (planResponse, int, error) {
	in, err := parseInstance(n, spec, strategy)
	if err != nil {
		return planResponse{}, http.StatusBadRequest, err
	}

	opts := cache.Options{Strategy: strategy}
	// Deadline-aware degradation: when the measured full-pipeline cost
	// does not fit the remaining context budget, demote to the anytime
	// portfolio under the degraded signature dimension; when even that
	// does not fit, serve a verified stale cache entry if one exists.
	// Named strategies are an explicit caller choice and never demoted,
	// and an unknown cost (cold bucket) is assumed to fit, so a fresh
	// server behaves exactly as with Degrade off.
	if s.degrade && strategy == "" {
		if dl, hasDeadline := ctx.Deadline(); hasDeadline {
			if est, known := s.costs.estimate(modeFull, in); known && time.Until(dl) < est {
				if dEst, dKnown := s.costs.estimate(modeDegraded, in); dKnown && time.Until(dl) < dEst {
					if resp, ok := s.stalePlan(in, strategy); ok {
						s.degraded.Add(1)
						s.degradedStale.Add(1)
						return resp, http.StatusOK, nil
					}
					// Nothing cached to fall back on: attempt the degraded
					// build anyway — a late answer beats none.
				}
				opts.Degrade = true
				s.degraded.Add(1)
			}
		}
	}
	// The request is keyed once: for a hub or random demand the signature
	// is an O(n²) hash.
	sig := cache.Signature(in, opts)
	jobStart := time.Now()
	v, err := s.pool.Submit(ctx, "", func(jctx context.Context) (any, error) {
		res, coverHit, err := s.plans.CoverKeyedCtx(jctx, sig, in, opts)
		if err != nil {
			return nil, err
		}
		if in.IsGeneral() {
			// No WDM layer over a general host: the plan is the cover
			// itself, judged by the shortest-cycle-cover objective.
			return planned{res: res, hit: coverHit}, nil
		}
		nw, netHit, err := s.plans.NetworkKeyedCtx(jctx, sig, in, opts)
		if err != nil {
			return nil, err
		}
		return planned{res: res, nw: nw, hit: coverHit && netHit}, nil
	})
	if err != nil {
		return planResponse{}, jobStatus(ctx, err), fmt.Errorf("plan failed: %w", err)
	}
	pl := v.(planned)
	if !pl.hit {
		// Feed the admission and cost models from real constructions only:
		// cache hits say nothing about what building a plan costs.
		elapsed := time.Since(jobStart)
		s.adm.observe(elapsed)
		mode := modeFull
		if opts.Degrade {
			mode = modeDegraded
		}
		s.costs.observe(mode, in, elapsed)
	}
	return buildPlanResponse(sig, in, strategy, pl.res, pl.nw, pl.hit), http.StatusOK, nil
}

// buildPlanResponse assembles the /plan answer from a covering result and
// (for ring instances) the optical facts its planned network carries.
// The answer reads the covering's cycles in place. Shared by planOne,
// the stale-serve path and /plan/delta.
func buildPlanResponse(sig string, in instance.Instance, strategy string, res cache.CoverResult, nw *wdm.Network, hit bool) planResponse {
	resp := planResponse{
		Signature: sig,
		N:         in.N(),
		Demand:    in.Name,
		Strategy:  strategy,
		Size:      res.Covering.Size(),
		Optimal:   res.Optimal,
		Degraded:  res.Degraded,
		Method:    string(res.Method),
		CacheHit:  hit,
	}
	if nw != nil {
		resp.Wavelengths = nw.Wavelengths()
		resp.ADMs = nw.ADMCount()
		resp.MaxTransit = nw.MaxTransit()
		resp.Cost = wdm.DefaultCostModel.Cost(nw)
	}
	if in.IsGeneral() {
		resp.Length = res.Covering.TotalLength()
		resp.SCCLowerBound = cover.SCCLowerBound(in.Host)
	} else if in.IsAllToAll() {
		resp.Rho = cover.Rho(in.N())
	}
	resp.cycles = res.Covering.Cycles
	return resp
}

// stalePlan probes the cache — full-budget entry first, then the
// degraded dimension — for a verified previous answer to serve without
// any construction when even the anytime portfolio is predicted to blow
// the deadline. Ring instances additionally need their WDM network
// cached; a covering without one falls through (the response could not
// be completed without doing work).
func (s *Server) stalePlan(in instance.Instance, strategy string) (planResponse, bool) {
	for _, o := range []cache.Options{{Strategy: strategy}, {Strategy: strategy, Degrade: true}} {
		res, ok := s.plans.Lookup(in, o)
		if !ok {
			continue
		}
		var nw *wdm.Network
		if !in.IsGeneral() {
			if nw, ok = s.plans.LookupNetwork(in, o); !ok {
				continue
			}
		}
		resp := buildPlanResponse(cache.Signature(in, o), in, strategy, res, nw, true)
		resp.Degraded = true
		resp.Stale = true
		return resp, true
	}
	return planResponse{}, false
}

// handlePlan serves GET/POST /plan?n=<int>&demand=<spec>[&strategy=<name>].
// The covering and its WDM plan are computed through the worker pool and
// covering cache; the X-Cache header reports HIT when the plan came from
// memory. With a configured plan timeout, an expired deadline answers
// 504 with a structured body naming the timeout.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	n, err := formN(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.planContext(r)
	defer cancel()
	resp, status, err := s.planOne(ctx, n, r.FormValue("demand"), r.FormValue("strategy"))
	if err != nil {
		s.writeJobError(w, status, err)
		return
	}
	if resp.CacheHit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	if resp.Stale {
		w.Header().Set("X-Degraded", "stale")
	} else if resp.Degraded {
		w.Header().Set("X-Degraded", "true")
	}
	writePlan(w, &resp, nil)
}

// MaxBatchItems bounds how many plan requests one /plan/batch call may
// carry. Each item costs a pool submission; a bulk caller with more work
// splits it across requests.
const MaxBatchItems = 1024

// maxBatchBody bounds the /plan/batch request body.
const maxBatchBody = 8 << 20

// maxBatchLine bounds one NDJSON line of a batch; any well-formed plan
// request is a few dozen bytes, so this is pure headroom.
const maxBatchLine = 1 << 20

// batchPlanRequest is one NDJSON line of a POST /plan/batch body.
type batchPlanRequest struct {
	N        int    `json:"n"`
	Demand   string `json:"demand"`   // spec; empty means alltoall
	Strategy string `json:"strategy"` // registry name; empty means the default pipeline
}

// batchPlanLine is one NDJSON line of the /plan/batch response: the
// zero-based index of the request line it answers, plus either the plan
// or that item's error. Lines stream in input order, and the index is
// the join key.
type batchPlanLine struct {
	Index int           `json:"index"`
	Plan  *planResponse `json:"plan,omitempty"`
	Error string        `json:"error,omitempty"`
}

// handlePlanBatch serves POST /plan/batch: a newline-delimited JSON
// stream of plan requests, answered by a newline-delimited JSON stream
// of results, one line per item in input order, each flushed as soon as
// it is written. Items run one after another through the same bounded
// worker pool as /plan — same-signature items (within the batch or
// against live /plan traffic) share one construction through the cache
// — and per-item failures are reported in-line without failing the
// batch. Every item re-checks the request context before touching the
// pool: when the client disconnects mid-batch, the remaining items fail
// in place without spawning constructions.
func (s *Server) handlePlanBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	type batchItem struct {
		req batchPlanRequest
		err error // line-level parse failure, reported in that slot
	}
	var items []batchItem
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxBatchLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if len(items) == MaxBatchItems {
			writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d items", MaxBatchItems)
			return
		}
		var req batchPlanRequest
		if err := json.Unmarshal(line, &req); err != nil {
			items = append(items, batchItem{err: fmt.Errorf("bad batch line: %v", err)})
			continue
		}
		items = append(items, batchItem{req: req})
	}
	if err := sc.Err(); err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge, "batch body exceeds %d bytes", tooBig.Limit)
		case errors.Is(err, bufio.ErrTooLong):
			// The scanner cannot resync past an over-long line, so this is
			// a whole-request failure, not a per-item error line.
			writeError(w, http.StatusRequestEntityTooLarge, "batch line exceeds %d bytes", maxBatchLine)
		default:
			writeError(w, http.StatusBadRequest, "reading batch: %v", err)
		}
		return
	}
	if len(items) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: want one JSON plan request per line")
		return
	}

	// One deadline bounds the whole batch: items share the request's
	// plan-timeout budget. When it (or the client's disconnect) fires,
	// the item in flight detaches from its construction — the search is
	// aborted once no other request wants it — and the items after it
	// fail fast with the context error in their line.
	ctx, cancel := s.planContext(r)
	defer cancel()

	// Headers are committed before the first line, so per-item errors
	// ride inside the stream rather than as an HTTP status.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	batch := s.route("/plan/batch")
	var buf []byte
	for i, it := range items {
		line := batchPlanLine{Index: i}
		switch {
		case it.err != nil:
			line.Error = it.err.Error()
		case ctx.Err() != nil:
			line.Error = "batch cancelled: " + ctx.Err().Error()
		default:
			if retry, ok := s.adm.checkQueue(batch); !ok {
				line.Error = fmt.Sprintf("shed: pool queue full, retry after %ds", retry)
			} else if resp, _, err := s.planOne(ctx, it.req.N, it.req.Demand, it.req.Strategy); err != nil {
				line.Error = err.Error()
			} else {
				line.Plan = &resp
			}
		}
		// A line that cannot be encoded (a non-finite cost) is dropped,
		// as json.Encoder drops it.
		if b, err := appendBatchLine(buf[:0], &line); err == nil {
			buf = b
			w.Write(buf)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// verifyRequest is the JSON body of POST /verify: a covering in the
// interchange form of internal/cover plus a demand spec.
type verifyRequest struct {
	N      int     `json:"n"`
	Cycles [][]int `json:"cycles"`
	Demand string  `json:"demand"` // spec; empty means alltoall
}

// verifyResponse reports the verdict. Invalid coverings answer 422 with
// Valid=false and the verifier's reason; malformed requests answer 400.
// For general-topology demands, Length and SCCLowerBound report the
// shortest-cycle-cover objective and Optimal means the cover meets the
// provable lower bound.
type verifyResponse struct {
	Valid         bool   `json:"valid"`
	Size          int    `json:"size"`
	Rho           int    `json:"rho,omitempty"`
	Length        int    `json:"length,omitempty"`
	SCCLowerBound int    `json:"sccLowerBound,omitempty"`
	Optimal       bool   `json:"optimal"`
	Error         string `json:"error,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verifyRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxVerifyBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "verify body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading verify request: %v", err)
		return
	}
	if err := decodeVerifyRequest(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad verify request: %v", err)
		return
	}
	in, err := parseInstance(req.N, req.Demand, "")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rg, _ := ring.New(req.N) // parseInstance has checked n

	// Verification is Θ(n²)-ish work, so it runs through the same pool
	// admission control as /plan, one job per request.
	v, err := s.pool.Submit(r.Context(), "", func(context.Context) (any, error) {
		resp := verifyResponse{Size: len(req.Cycles)}
		if in.IsGeneral() {
			// General-topology verification: cycles are explicit closed
			// walks over host edges (order matters), not ring vertex sets.
			cv := cover.NewGeneralCovering(req.N)
			for _, verts := range req.Cycles {
				c, err := cover.WalkCycle(verts)
				if err != nil {
					resp.Error = err.Error()
					return resp, nil
				}
				cv.Cycles = append(cv.Cycles, c)
			}
			resp.SCCLowerBound = cover.SCCLowerBound(in.Host)
			if err := cover.VerifyGeneral(cv, in.Host); err != nil {
				resp.Error = err.Error()
				return resp, nil
			}
			resp.Valid = true
			resp.Length = cv.TotalLength()
			resp.Optimal = resp.Length == resp.SCCLowerBound
			return resp, nil
		}
		if in.IsAllToAll() {
			resp.Rho = cover.Rho(req.N)
		}
		cv, err := cover.FromVertexSets(rg, req.Cycles)
		if err != nil {
			resp.Error = err.Error()
			return resp, nil
		}
		if err := cover.Verify(cv, in.Demand); err != nil {
			resp.Error = err.Error()
			return resp, nil
		}
		resp.Valid = true
		resp.Optimal = resp.Rho > 0 && cv.Size() == resp.Rho
		return resp, nil
	})
	if err != nil {
		s.writeJobError(w, jobStatus(r.Context(), err), fmt.Errorf("verify failed: %w", err))
		return
	}
	resp := v.(verifyResponse)
	if !resp.Valid {
		writeJSON(w, http.StatusUnprocessableEntity, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthResponse is the JSON shape of /livez (and its /healthz alias).
type healthResponse struct {
	Status        string           `json:"status"`
	UptimeSeconds float64          `json:"uptimeSeconds"`
	Cache         cache.PlansStats `json:"cache"`
	Pool          PoolStats        `json:"pool"`
}

// handleLivez answers liveness: the process is up and the handler loop
// responsive. It stays 200 through startup and drain — restarting a
// draining daemon would be exactly wrong — and carries the cache/pool
// counters for humans. Readiness lives on /readyz.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache:         s.plans.Stats(),
		Pool:          s.pool.Stats(),
	})
}

// readyResponse is the JSON shape of /readyz.
type readyResponse struct {
	Status string `json:"status"`
	Ready  bool   `json:"ready"`
}

// handleReadyz answers readiness: whether this instance should receive
// new traffic. 503 while startup work is pending (SetReady), while the
// graceful-shutdown drain runs (StartDrain), or once the pool has
// stopped accepting work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{Status: "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{Status: "starting"})
	case s.pool.Closed():
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{Status: "stopped"})
	default:
		writeJSON(w, http.StatusOK, readyResponse{Status: "ready", Ready: true})
	}
}

// handleMetrics emits the counters in the Prometheus text exposition
// format, without taking a dependency on a metrics library.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.plans.Stats()
	ps := s.pool.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	emit := func(name string, labels string, v uint64) {
		if labels != "" {
			fmt.Fprintf(w, "%s{%s} %d\n", name, labels, v)
		} else {
			fmt.Fprintf(w, "%s %d\n", name, v)
		}
	}
	for _, store := range []struct {
		label string
		s     cache.Stats
	}{{"coverings", st.Coverings}, {"networks", st.Networks}} {
		l := fmt.Sprintf("store=%q", store.label)
		emit("cycled_cache_hits_total", l, store.s.Hits)
		emit("cycled_cache_misses_total", l, store.s.Misses)
		emit("cycled_cache_coalesced_total", l, store.s.Coalesced)
		emit("cycled_cache_abandoned_total", l, store.s.Abandoned)
		emit("cycled_cache_cancelled_total", l, store.s.Cancelled)
		emit("cycled_cache_evictions_total", l, store.s.Evictions)
		emit("cycled_cache_entries", l, uint64(store.s.Entries))
	}
	emit("cycled_pool_executed_total", "", ps.Executed)
	emit("cycled_pool_running", "", uint64(ps.Running))
	emit("cycled_queue_depth", "", uint64(ps.QueueDepth))
	// Resilience counters: shed requests (total and per route), degrade
	// decisions, and recovered panics (total and per fingerprint). Route
	// lines follow the table's path order and fingerprints are sorted, for
	// byte-stable scrapes; a route with a zero count prints no line.
	// Copy the shed counts before emitting: writing to a slow client
	// under the admission mutex would stall every work request.
	shed := make([]uint64, len(s.routes))
	var shedTotal uint64
	s.adm.mu.Lock()
	for i := range s.routes {
		shed[i] = s.routes[i].shed
		shedTotal += shed[i]
	}
	s.adm.mu.Unlock()
	emit("cycled_shed_total", "", shedTotal)
	for i, c := range shed {
		if c != 0 {
			emit("cycled_shed_path_total", fmt.Sprintf("path=%q", s.routes[i].path), c)
		}
	}
	emit("cycled_degraded_total", "", s.degraded.Load())
	emit("cycled_degraded_stale_total", "", s.degradedStale.Load())
	emit("cycled_panics_recovered_total", "", ps.PanicsRecovered)
	panics := s.pool.Panics()
	fps := make([]string, 0, len(panics))
	//cyclecover:nondet keys are sorted immediately below before emission
	for fp := range panics {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		emit("cycled_panics_recovered_fingerprint_total", fmt.Sprintf("fingerprint=%q", fp), panics[fp])
	}
	for i := range s.routes {
		if c := s.routes[i].served.Load(); c != 0 {
			emit("cycled_http_requests_total", fmt.Sprintf("path=%q", s.routes[i].path), c)
		}
	}
	fmt.Fprintf(w, "cycled_uptime_seconds %d\n", int64(time.Since(s.start).Seconds()))
}
