package main

// The traced replay. It replays a run's sequence in-process on the same
// closed loop and measures each layer from outside, through the layer's
// public functions, in the order the handlers call them:
//
//   - the root span is the real handler, Server.Handler().ServeHTTP, of
//     an in-process server configured like the daemon;
//   - beneath it, a mirror of the handler calls the layers' entry points
//     on a second cache and pool that see the same sequence: instance
//     parsing, cache.Signature, Pool.Submit, the cache.Plans calls, the
//     wdm.Network metrics, survive sweeps and the JSON encode;
//   - a cache miss constructs and verifies inside the cache call, where
//     no public function reaches; the mirror times those children by
//     calling the construct and cover entry points again on the same
//     instance, and the cache call's self time is the remainder.
//
// The root's self time — the handler span minus the mirrored layers — is
// the work no public function reaches: routing, admission, body parsing
// and response assembly. End-to-end numbers come only from the daemon
// run; the gap between its throughput and the replay's is the tracing
// overhead.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/server"
	"github.com/cyclecover/cyclecover/internal/survive"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// serverConfig is the in-process server's configuration: the daemon's
// flags (see daemonFlags) with cycled's default queue, and a larger
// cache (see replayCacheSize).
var serverConfig = server.Config{
	CacheSize:   replayCacheSize,
	Queue:       64,
	PlanTimeout: 30 * time.Second,
	MaxInflight: 64,
	MaxQueue:    128,
	Degrade:     true,
}

// replayCacheSize bounds each store of the replay's two caches. A
// cold-ring session sends its next step as soon as the previous child
// is answered, so in the daemon the child it names as parent is always
// still cached. The replay adds the mirror's out-of-line re-runs between
// two steps of a session, and on a large ring these take long enough
// for the other connection to push the parent out of a cache of the
// daemon's default size; the next step then fails with an unknown
// parent. Four times the default keeps every active session resident,
// as in the daemon, while eviction still runs once the caches fill.
const replayCacheSize = 4 * cache.DefaultCapacity

type replayer struct {
	h     http.Handler
	srv   *server.Server
	plans *cache.Plans // mirror cache
	pool  *server.Pool // mirror pool
	epoch time.Time
	bufs  [conns]bytes.Buffer
}

// traced is the result of a replay.
type traced struct {
	sum               summary
	elapsed           time.Duration
	attempted, failed int
	snapshotLoad      time.Duration
	spansFile         string
}

func replay(cfg config, seq *Sequence, snapshot []byte, dr *daemonResult) (*traced, error) {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rp := &replayer{
		srv:   server.New(serverConfig),
		plans: cache.New(replayCacheSize),
		pool:  server.NewPool(serverConfig.Workers, serverConfig.Queue),
		epoch: time.Now(),
	}
	rp.h = rp.srv.Handler()
	defer rp.srv.Close()
	defer rp.pool.Close()
	tr := &traced{}
	if snapshot != nil {
		path := filepath.Join(dir, "snapshot.json")
		if err := os.WriteFile(path, snapshot, 0o644); err != nil {
			return nil, err
		}
		if _, _, err := rp.srv.Plans().LoadSnapshotFile(path); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, _, err := rp.plans.LoadSnapshotFile(path); err != nil {
			return nil, err
		}
		tr.snapshotLoad = time.Since(start)
		os.Remove(path)
	}
	vb, err := verifyBodies(dr.preloaded)
	if err != nil {
		return nil, err
	}
	// Preload and warm-up go through both paths untraced, so the caches
	// hold what the daemon's held when its timed phase began.
	pre := make([]Unit, len(seq.Preload))
	for i, it := range seq.Preload {
		pre[i] = Unit{{Kind: KindPlan, Item: it}}
	}
	for _, units := range [][]Unit{pre, seq.Warmup} {
		wires, err := renderAll(units)
		if err == nil {
			err = withVerifyBodies(units, wires, vb)
		}
		if err != nil {
			return nil, err
		}
		reqs := flatten(units)
		closedLoop(units, func(conn, id int, dup bool) {
			rp.request(conn, &reqTrace{epoch: rp.epoch, id: int32(id)}, reqs[id], wires[id])
		})
	}
	wires, err := renderAll(seq.Timed)
	if err == nil {
		err = withVerifyBodies(seq.Timed, wires, vb)
	}
	if err != nil {
		return nil, err
	}
	reqs := seq.Requests()
	var mu sync.Mutex
	var all []*reqTrace
	var bytesOut []int
	var failed atomic.Int64
	tr.elapsed = closedLoop(seq.Timed, func(conn, id int, dup bool) {
		t := &reqTrace{epoch: rp.epoch, id: int32(id)}
		status, n := rp.request(conn, t, reqs[id], wires[id])
		if status != http.StatusOK {
			failed.Add(1)
		}
		mu.Lock()
		all = append(all, t)
		bytesOut = append(bytesOut, n)
		mu.Unlock()
	})
	tr.attempted, tr.failed = len(all), int(failed.Load())
	for i, t := range all {
		tr.sum.addRequest(t, bytesOut[i])
	}
	tr.spansFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", seq.Workload, seq.Seed))
	return tr, writeSpans(tr.spansFile, all)
}

// writeSpans writes every span of the timed replay, one JSON object per
// line, ordered by request id.
func writeSpans(path string, all []*reqTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	byID := slices.Clone(all)
	slices.SortFunc(byID, func(a, b *reqTrace) int { return int(a.id - b.id) })
	for _, t := range byID {
		for _, sp := range t.spans {
			fmt.Fprintf(w, `{"req":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"failed":%t}`+"\n",
				sp.req, sp.parent, layerMetric[sp.layer], sp.start, sp.end, sp.failed)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// request serves one request through the real handler (the root span)
// and then through the mirror of its layers. It returns the handler's
// status and answer size.
func (rp *replayer) request(conn int, t *reqTrace, r *Request, w wire) (int, int) {
	var body io.Reader
	if w.body != nil {
		body = bytes.NewReader(w.body)
	}
	hreq := httptest.NewRequest(w.method, w.target, body)
	rec := httptest.NewRecorder()
	root := t.open(-1, lRequest)
	rp.h.ServeHTTP(rec, hreq)
	t.close(root, statusErr(rec.Code))
	ctx := context.Background()
	buf := &rp.bufs[conn]
	var err error
	switch r.Kind {
	case KindPlan:
		var resp any
		if resp, err = rp.plan(ctx, t, root, r.Item); err == nil {
			err = rp.encode(t, root, buf, resp, true)
		}
	case KindBatch:
		err = rp.batch(ctx, t, root, r.Items)
	case KindDelta:
		err = rp.delta(ctx, t, root, buf, r)
	case KindSimulate:
		err = rp.simulate(ctx, t, root, buf, r)
	case KindVerify:
		err = rp.verify(ctx, t, root, buf, w.body)
	}
	t.runLater()
	if err != nil && rec.Code == http.StatusOK {
		return http.StatusInternalServerError, rec.Body.Len()
	}
	return rec.Code, rec.Body.Len()
}

func statusErr(code int) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d", code)
	}
	return nil
}

// encode times the answer's JSON encode the way the handlers write it.
func (rp *replayer) encode(t *reqTrace, parent int, buf *bytes.Buffer, v any, indent bool) error {
	return t.do(parent, lEncode, func() error {
		buf.Reset()
		enc := json.NewEncoder(buf)
		if indent {
			enc.SetIndent("", "  ")
		}
		return enc.Encode(v)
	})
}

// submit runs job through the mirror pool under sig and records the
// queue wait: from Submit to the job's start, or — for a submission that
// joined another request's job — to the shared answer.
func (rp *replayer) submit(ctx context.Context, t *reqTrace, parent int, sig string, job func(context.Context) (any, error)) (any, error) {
	start := t.now()
	var ran atomic.Bool
	v, err := rp.pool.Submit(ctx, sig, func(jctx context.Context) (any, error) {
		ran.Store(true)
		t.add(parent, lQueueWait, start, t.now(), nil)
		return job(jctx)
	})
	if !ran.Load() {
		t.add(parent, lQueueWait, start, t.now(), err)
	}
	return v, err
}

// planJSON is the /plan answer shape (server.planResponse).
type planJSON struct {
	Signature     string  `json:"signature"`
	N             int     `json:"n"`
	Demand        string  `json:"demand"`
	Size          int     `json:"size"`
	Rho           int     `json:"rho,omitempty"`
	Length        int     `json:"length,omitempty"`
	SCCLowerBound int     `json:"sccLowerBound,omitempty"`
	Optimal       bool    `json:"optimal"`
	Method        string  `json:"method"`
	Cycles        [][]int `json:"cycles"`
	Wavelengths   int     `json:"wavelengths"`
	ADMs          int     `json:"adms"`
	MaxTransit    int     `json:"maxTransit"`
	Cost          float64 `json:"cost"`
	CacheHit      bool    `json:"cacheHit"`
}

// mirrored is what a mirrored plan job computes.
type mirrored struct {
	res cache.CoverResult
	nw  *wdm.Network
	hit bool
}

// plan mirrors the /plan path: parse, signature, pool, covering and
// network through the cache, WDM metrics, response assembly.
func (rp *replayer) plan(ctx context.Context, t *reqTrace, parent int, it Item) (*planJSON, error) {
	var in instance.Instance
	if err := t.do(parent, lParse, func() (err error) { in, err = instance.Parse(it.N, it.Spec); return }); err != nil {
		return nil, err
	}
	var sig string
	t.do(parent, lSignature, func() error { sig = cache.Signature(in, cache.Options{}); return nil })
	v, err := rp.submit(ctx, t, parent, sig, func(jctx context.Context) (any, error) {
		res, hit, err := rp.cover(jctx, t, parent, in)
		if err != nil || in.IsGeneral() {
			return mirrored{res: res, hit: hit}, err
		}
		nw, netHit, err := rp.network(jctx, t, parent, in, cache.Options{})
		return mirrored{res: res, nw: nw, hit: hit && netHit}, err
	})
	if err != nil {
		return nil, err
	}
	m := v.(mirrored)
	resp := &planJSON{
		Signature: sig, N: in.N(), Demand: in.Name, Size: m.res.Covering.Size(),
		Optimal: m.res.Optimal, Method: string(m.res.Method), CacheHit: m.hit,
	}
	if m.nw != nil {
		rp.metrics(t, parent, m.nw, resp)
	}
	if in.IsGeneral() {
		resp.Length = m.res.Covering.TotalLength()
		t.do(parent, lVerify, func() error { resp.SCCLowerBound = cover.SCCLowerBound(in.Host); return nil })
	} else if allToAll(in) {
		resp.Rho = cover.Rho(in.N())
	}
	for _, c := range m.res.Covering.Cycles {
		resp.Cycles = append(resp.Cycles, c.Vertices())
	}
	return resp, nil
}

func allToAll(in instance.Instance) bool {
	n := in.N()
	pairs := n * (n - 1) / 2
	return !in.IsGeneral() && in.Demand.DistinctEdges() == pairs && in.Demand.M() == pairs
}

// metrics times the per-answer WDM facts.
func (rp *replayer) metrics(t *reqTrace, parent int, nw *wdm.Network, resp *planJSON) {
	t.do(parent, lWDMMetrics, func() error {
		resp.Wavelengths, resp.ADMs, resp.MaxTransit = nw.Wavelengths(), nw.ADMCount(), nw.MaxTransit()
		resp.Cost = wdm.DefaultCostModel.Cost(nw)
		return nil
	})
}

// cover calls CoverCtx under a hit or miss span; on a miss it queues the
// out-of-line construct and verify children.
func (rp *replayer) cover(ctx context.Context, t *reqTrace, parent int, in instance.Instance) (cache.CoverResult, bool, error) {
	start := t.now()
	res, hit, err := rp.plans.CoverCtx(ctx, in, cache.Options{})
	i := t.add(parent, cacheLayer(hit), start, t.now(), err)
	if err == nil && !hit {
		t.defer_(func() { rp.constructChildren(t, i, in) })
	}
	return res, hit, err
}

func cacheLayer(hit bool) layer {
	if hit {
		return lCacheHit
	}
	return lCacheMiss
}

// constructChildren times what a CoverCtx miss ran inside the cache: the
// constructor the default pipeline dispatches to, then verification.
func (rp *replayer) constructChildren(t *reqTrace, parent int, in instance.Instance) {
	ctx := context.Background()
	if in.IsGeneral() {
		var out construct.Outcome
		err := t.do(parent, lConstructSCC, func() (err error) { out, err = construct.GeneralSCCCtx(ctx, in, construct.Options{}); return })
		if err != nil {
			return
		}
		t.mu.Lock()
		t.sccMisses++
		if out.Optimal {
			t.sccOptimal++
		}
		t.mu.Unlock()
		t.do(parent, lVerify, func() error { return cover.VerifyGeneral(out.Covering, in.Host) })
		return
	}
	var cv *cover.Covering
	err := t.do(parent, lConstructRing, func() (err error) { cv, err = ringConstruct(ctx, in); return })
	if err == nil {
		t.do(parent, lVerify, func() error { return cover.Verify(cv, in.Demand) })
	}
}

// ringConstruct is the default ring pipeline's constructor choice.
func ringConstruct(ctx context.Context, in instance.Instance) (*cover.Covering, error) {
	if lam, ok := construct.UniformLambda(in.Demand); ok {
		var res construct.Result
		var err error
		if lam == 1 {
			res, err = construct.AllToAllCtx(ctx, in.N())
		} else {
			res, err = construct.LambdaCtx(ctx, in.N(), lam)
		}
		return res.Covering, err
	}
	r, err := ring.New(in.N())
	if err != nil {
		return nil, err
	}
	return construct.GreedyCtx(ctx, r, in.Demand)
}

// network calls NetworkCtx under a hit or miss span; on a miss it queues
// the out-of-line wdm.Plan child (and the verification inside it).
func (rp *replayer) network(ctx context.Context, t *reqTrace, parent int, in instance.Instance, opts cache.Options) (*wdm.Network, bool, error) {
	start := t.now()
	nw, hit, err := rp.plans.NetworkCtx(ctx, in, opts)
	i := t.add(parent, cacheLayer(hit), start, t.now(), err)
	if err == nil && !hit {
		t.defer_(func() { rp.planChildren(t, i, in, opts) })
	}
	return nw, hit, err
}

// planChildren times what a NetworkCtx miss ran inside the cache:
// wdm.Plan over the cached covering, and the verification Plan repeats.
func (rp *replayer) planChildren(t *reqTrace, parent int, in instance.Instance, opts cache.Options) {
	res, ok := rp.plans.Lookup(in, opts)
	if !ok {
		return
	}
	p := t.open(parent, lWDMPlan)
	_, err := wdm.Plan(res.Covering, in.Demand)
	t.close(p, err)
	t.do(p, lVerify, func() error { return cover.Verify(res.Covering, in.Demand) })
}

// batch mirrors /plan/batch: fan-out over the pool's workers and one
// compact encode per answer line. Reading the NDJSON lines is handler
// work and stays in the root's self time.
func (rp *replayer) batch(ctx context.Context, t *reqTrace, parent int, items []Item) error {
	workers := min(rp.pool.Workers(), len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				resp, err := rp.plan(ctx, t, parent, items[i])
				if err == nil {
					err = rp.encode(t, parent, &b, struct {
						Index int       `json:"index"`
						Plan  *planJSON `json:"plan,omitempty"`
					}{i, resp}, false)
				}
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// delta mirrors /plan/delta.
func (rp *replayer) delta(ctx context.Context, t *reqTrace, parent int, buf *bytes.Buffer, r *Request) error {
	var d instance.Delta
	spec := r.Deltas[len(r.Deltas)-1]
	if err := t.do(parent, lParse, func() (err error) { d, err = instance.ParseDelta(spec); return }); err != nil {
		return err
	}
	rs := t.open(parent, lDeltaResolve)
	dp, err := rp.plans.ResolveDelta(r.Parent, d)
	t.close(rs, err)
	if err != nil {
		return err
	}
	// ResolveDelta applies the delta and signs the child inside.
	t.do(rs, lParse, func() (err error) { _, err = d.Apply(dp.Parent.Demand); return })
	t.do(rs, lSignature, func() error { cache.Signature(dp.Child, dp.Opts); return nil })
	v, err := rp.submit(ctx, t, parent, "delta:"+dp.ParentSig+"->"+dp.ChildSig, func(jctx context.Context) (any, error) {
		start := t.now()
		res, hit, err := rp.plans.CoverDeltaCtx(jctx, dp)
		i := t.add(parent, cacheLayer(hit), start, t.now(), err)
		if err != nil {
			return nil, err
		}
		if !hit {
			t.defer_(func() { rp.deltaChildren(t, i, dp, res.Method) })
		}
		nw, netHit, err := rp.network(jctx, t, parent, dp.Child, dp.Opts)
		return mirrored{res: res, nw: nw, hit: hit && netHit}, err
	})
	if err != nil {
		return err
	}
	m := v.(mirrored)
	resp := struct {
		planJSON
		Parent   string `json:"parent"`
		Delta    string `json:"delta"`
		Repaired bool   `json:"repaired"`
	}{
		planJSON: planJSON{
			Signature: dp.ChildSig, N: dp.Child.N(), Demand: dp.Child.Name, Size: m.res.Covering.Size(),
			Optimal: m.res.Optimal, Method: string(m.res.Method), CacheHit: m.hit,
		},
		Parent: dp.ParentSig, Delta: d.String(), Repaired: m.res.Method == construct.MethodDelta,
	}
	rp.metrics(t, parent, m.nw, &resp.planJSON)
	if allToAll(dp.Child) {
		resp.Rho = cover.Rho(dp.Child.N())
	}
	for _, c := range m.res.Covering.Cycles {
		resp.Cycles = append(resp.Cycles, c.Vertices())
	}
	return rp.encode(t, parent, buf, resp, true)
}

// deltaChildren times what a CoverDeltaCtx miss ran inside the cache:
// the greedy budget probe and the warm repair (or the cold fallback),
// then verification.
func (rp *replayer) deltaChildren(t *reqTrace, parent int, dp cache.DeltaPlan, method construct.Method) {
	ctx := context.Background()
	in := dp.Child
	r, err := ring.New(in.N())
	if err != nil {
		return
	}
	var cv *cover.Covering
	ok := false
	err = t.do(parent, lConstructDelta, func() error {
		budget, predicted := construct.DeltaBudget(in.Demand)
		if !predicted {
			g, err := construct.GreedyCtx(ctx, r, in.Demand)
			if err != nil {
				return err
			}
			cv, budget = g, g.Size()
		}
		var repaired *cover.Covering
		repaired, ok = construct.DeltaRepair(ctx, r, dp.Parent.Covering, in.Demand, construct.DeltaOptions{
			Budget: budget, Seed: int64(in.N()), Scratch: construct.NewDeltaScratch(),
		})
		if ok {
			cv = repaired.CloneDetached()
		}
		return nil
	})
	if err != nil {
		return
	}
	if !ok && cv == nil {
		if t.do(parent, lConstructRing, func() (err error) { cv, err = ringConstruct(ctx, in); return }) != nil {
			return
		}
	}
	t.mu.Lock()
	t.deltaMisses++
	if method == construct.MethodDelta {
		t.repaired++
	}
	t.mu.Unlock()
	t.do(parent, lVerify, func() error { return cover.Verify(cv, in.Demand) })
}

// simulate mirrors /simulate.
func (rp *replayer) simulate(ctx context.Context, t *reqTrace, parent int, buf *bytes.Buffer, r *Request) error {
	var in instance.Instance
	if err := t.do(parent, lParse, func() (err error) { in, err = instance.Parse(r.Item.N, r.Item.Spec); return }); err != nil {
		return err
	}
	var sig string
	t.do(parent, lSignature, func() error { sig = cache.Signature(in, cache.Options{}); return nil })
	// The handler's normalisation: exhaustive sweeps ignore the sampler.
	opts := survive.SweepOptions{K: r.K, Sample: server.DefaultSweepSample, MaxScenarios: server.MaxSweepScenarios}
	if r.K >= 3 {
		opts.Sample, opts.Seed = r.Sample, r.SimSeed
	}
	jobSig := fmt.Sprintf("%s;sim:k=%d,sample=%d,seed=%d", sig, opts.K, opts.Sample, opts.Seed)
	v, err := rp.submit(ctx, t, parent, jobSig, func(jctx context.Context) (any, error) {
		nw, _, err := rp.network(jctx, t, parent, in, cache.Options{})
		if err != nil {
			return nil, err
		}
		var res survive.SweepResult
		err = t.do(parent, lSweep, func() (err error) { res, err = survive.NewSimulator(nw).SweepCtx(jctx, opts); return })
		t.mu.Lock()
		t.scenarios += res.Evaluated
		t.mu.Unlock()
		return struct {
			Signature   string              `json:"signature"`
			N           int                 `json:"n"`
			Demand      string              `json:"demand"`
			Subnets     int                 `json:"subnets"`
			Wavelengths int                 `json:"wavelengths"`
			CacheHit    bool                `json:"cacheHit"`
			Sweep       survive.SweepResult `json:"sweep"`
		}{sig, in.N(), in.Name, len(nw.Subnets), nw.Wavelengths(), true, res}, err
	})
	if err != nil {
		return err
	}
	return rp.encode(t, parent, buf, v, true)
}

// verify mirrors /verify: body decode, demand parse, verification in a
// pool job keyed by the body's hash.
func (rp *replayer) verify(ctx context.Context, t *reqTrace, parent int, buf *bytes.Buffer, body []byte) error {
	var req struct {
		N      int     `json:"n"`
		Cycles [][]int `json:"cycles"`
		Demand string  `json:"demand"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	var in instance.Instance
	if err := t.do(parent, lParse, func() (err error) { in, err = instance.Parse(req.N, req.Demand); return }); err != nil {
		return err
	}
	v, err := rp.submit(ctx, t, parent, fmt.Sprintf("verify:%x", sha256.Sum256(body)), func(context.Context) (any, error) {
		var resp verifyBody
		err := t.do(parent, lVerify, func() error {
			if in.IsGeneral() {
				cv := cover.NewGeneralCovering(req.N)
				for _, walk := range req.Cycles {
					c, err := cover.WalkCycle(walk)
					if err != nil {
						return err
					}
					cv.Cycles = append(cv.Cycles, c)
				}
				resp.SCCLowerBound = cover.SCCLowerBound(in.Host)
				resp.Length = cv.TotalLength()
				resp.Optimal = resp.Length == resp.SCCLowerBound
				return cover.VerifyGeneral(cv, in.Host)
			}
			rg, err := ring.New(req.N)
			if err != nil {
				return err
			}
			cv, err := cover.FromVertexSets(rg, req.Cycles)
			if err != nil {
				return err
			}
			if allToAll(in) {
				resp.Rho = cover.Rho(req.N)
			}
			resp.Optimal = resp.Rho > 0 && cv.Size() == resp.Rho
			return cover.Verify(cv, in.Demand)
		})
		resp.Valid, resp.Size = err == nil, len(req.Cycles)
		return resp, err
	})
	if err != nil {
		return err
	}
	return rp.encode(t, parent, buf, v, true)
}

func (tr *traced) throughput() float64 { return float64(tr.attempted) / tr.elapsed.Seconds() }

func (tr *traced) printSummary(w io.Writer) {
	tr.sum.print(w)
	fmt.Fprintf(w, "spans written to %s\n", tr.spansFile)
}

// expectedLayers lists, per workload, the layers its requests must pass
// through; the trace check fails when one of them recorded no call.
var expectedLayers = map[string][]layer{
	"warm":         {lRequest, lParse, lSignature, lQueueWait, lCacheHit, lVerify, lWDMMetrics, lEncode},
	"cold-ring":    {lRequest, lParse, lSignature, lQueueWait, lCacheHit, lCacheMiss, lDeltaResolve, lConstructRing, lConstructDelta, lVerify, lWDMPlan, lWDMMetrics, lSweep, lEncode},
	"cold-general": {lRequest, lParse, lSignature, lQueueWait, lCacheMiss, lConstructSCC, lVerify, lEncode},
}

// metrics returns every per-layer metric, with the problems the trace
// check found.
func (tr *traced) metrics(workload string, dr *daemonResult) (map[string]Metric, []string) {
	s := &tr.sum
	req := float64(s.requests)
	m := dr.daemonLayers()
	for l := layer(0); l < nLayers; l++ {
		m[layerMetric[l]] = Metric{float64(s.layers[l].self) / 1e6 / req, "ms"}
	}
	qp99, _ := quantile(s.queueWaits, 0.99)
	untraced := float64(dr.out.attempted-dr.out.failed) / dr.elapsed.Seconds()
	m["server.queue_wait_p99_ms"] = Metric{qp99, "ms"}
	m["server.response_kb"] = Metric{float64(s.respBytes) / 1024 / req, "KiB"}
	m["cache.snapshot_load_ms"] = Metric{ms(tr.snapshotLoad), "ms"}
	m["construct.delta_repaired_ratio"] = Metric{ratio(float64(s.repaired), float64(s.deltaMisses)), "ratio"}
	m["construct.scc_optimal_ratio"] = Metric{ratio(float64(s.sccOptimal), float64(s.sccMisses)), "ratio"}
	m["survive.scenarios_per_req"] = Metric{float64(s.scenarios) / req, "count"}
	m["trace.request_ms"] = Metric{float64(s.rootTotal) / 1e6 / req, "ms"}
	m["trace.throughput_rps"] = Metric{tr.throughput(), "req/s"}
	m["trace.overhead_ratio"] = Metric{1 - ratio(tr.throughput(), untraced), "ratio"}

	var problems []string
	if s.unparented > 0 {
		problems = append(problems, fmt.Sprintf("%d spans outside any request", s.unparented))
	}
	if s.selfTotal() != s.rootTotal {
		problems = append(problems, fmt.Sprintf("self times sum to %d ns, traced request time is %d ns", s.selfTotal(), s.rootTotal))
	}
	for _, l := range expectedLayers[workload] {
		if s.layers[l].calls == 0 {
			problems = append(problems, fmt.Sprintf("%s: no calls on %s", layerMetric[l], workload))
		}
	}
	if workload == "warm" && tr.snapshotLoad == 0 {
		problems = append(problems, "cache.snapshot_load_ms: no snapshot load on warm")
	}
	return m, problems
}
