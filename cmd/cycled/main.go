// Command cycled is the long-running planner daemon: it serves DRC cycle
// coverings and WDM plans over HTTP/JSON, memoizing every verified result
// so repeated traffic for the same ring is answered from cache.
//
// Endpoints (see DESIGN.md §5 for the full API):
//
//	GET  /plan?n=13&demand=alltoall   plan a covering + WDM design
//	POST /plan/batch                  NDJSON bulk planning: one request per
//	                                  line in, one result line per request
//	                                  streamed in input order ("index")
//	POST /plan/delta                  replan a cached plan after a bounded
//	                                  change (the parent patched, or the
//	                                  cold plan when that is smaller)
//	GET  /simulate?n=13&k=2           plan (cached) + k-failure sweep:
//	                                  restoration rates, worst scenarios,
//	                                  critical links; k ≥ 3 sampled by
//	                                  &sample= and &seed=
//	POST /verify                      verify a covering against a demand
//	GET  /livez                       liveness (aliased by /healthz) +
//	                                  cache/pool counters
//	GET  /readyz                      readiness: 503 while starting up or
//	                                  draining for shutdown
//	GET  /metrics                     Prometheus text exposition
//
// Usage:
//
//	cycled                        # listen on :8337
//	cycled -addr 127.0.0.1:9000 -workers 8 -cache 512
//	cycled -plan-timeout 2s       # bound each plan request; expiry → 504
//	cycled -snapshot plans.snap   # warm the cache at boot, persist on exit
//	cycled -pprof 127.0.0.1:6060  # profiling endpoints on a second listener
//	cycled -max-inflight 64 -max-queue 128   # admission control: shed → 429
//	cycled -plan-timeout 2s -degrade         # demote to anytime under pressure
//
// With -max-inflight and/or -max-queue set, the work endpoints shed
// excess load with a structured 429 and a Retry-After hint derived from
// the observed job-latency EWMA, instead of queueing without bound:
// -max-inflight caps each work endpoint's admitted requests, -max-queue
// the jobs waiting for a worker (a job waits in the pool's Submit, not
// in a buffer). Every endpoint counts its requests, a 405 included, in
// /metrics' cycled_http_requests_total. With
// -degrade set (meaningful together with -plan-timeout), a request whose
// remaining deadline budget is smaller than the measured full-pipeline
// cost is planned by the anytime portfolio instead — verified, marked
// degraded:true, cached under a separate signature dimension — and when
// even that cannot fit, a verified stale cache hit is served with
// X-Degraded: stale. The -fault/-fault-seed flags arm the deterministic
// failpoints of internal/faultinject and exist only in builds made with
// -tags faultinject; production binaries refuse a non-empty -fault.
//
// With -pprof set, the daemon exposes the net/http/pprof endpoints
// (/debug/pprof/...) on a second, dedicated listener so live planning
// traffic can be profiled without routing profile downloads through the
// serving mux. The flag is off by default and the listener must resolve
// to a loopback address — the profiling surface dumps goroutine stacks
// and heap contents and is never meant to be reachable off-host.
//
// With -snapshot set, the daemon warms its covering cache from the named
// snapshot file at startup (a missing file starts cold; an unreadable or
// corrupt one is logged and skipped, never fatal — every entry that does
// load is re-verified before admission) and persists the cache back to
// the same path on graceful shutdown. The save is atomic (temp file +
// fsync + rename), so a crash mid-save leaves the previous snapshot
// intact rather than a truncated file.
//
// With -plan-timeout set, every /plan and /plan/batch request runs under
// that deadline: on expiry the client receives 504 with a structured
// body, and the construction search itself is cancelled mid-search
// (branch-and-bound stops within one node expansion) unless another
// in-flight request still wants the result. Strategy selection is per
// request via ?strategy= (closed-form, exact, repair, greedy, the scc
// members, portfolio); without it the default strategy picks by
// instance class (see construct.Auto).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops,
// in-flight requests drain (bounded by -drain), then the worker pool
// stops.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cyclecover/cyclecover/internal/faultinject"
	"github.com/cyclecover/cyclecover/internal/server"
)

func main() {
	addr := flag.String("addr", ":8337", "listen address")
	workers := flag.Int("workers", 0, "planner worker pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0, "covering cache capacity per store (0 = default)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	planTimeout := flag.Duration("plan-timeout", 0, "per-request plan deadline; expiry answers 504 and cancels the search (0 = none)")
	snapshot := flag.String("snapshot", "", "cache snapshot file: warm at boot, persist atomically on shutdown (empty = disabled)")
	pprofAddr := flag.String("pprof", "", "loopback address for net/http/pprof profiling endpoints (empty = disabled)")
	maxInflight := flag.Int("max-inflight", 0, "per-endpoint in-flight admission cap; past it requests shed with 429 (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "shed new work when this many jobs wait for a worker (0 = unlimited)")
	degrade := flag.Bool("degrade", false, "deadline-aware degradation: demote to the anytime portfolio when the measured full-pipeline cost exceeds the remaining budget")
	fault := flag.String("fault", "", "failpoint spec site=verb[(arg)][@prob][#limit];... (requires a -tags faultinject build)")
	faultSeed := flag.Int64("fault-seed", 1, "seed keying the deterministic failpoint schedule")
	flag.Parse()

	if *fault != "" {
		if err := faultinject.Configure(*fault, *faultSeed); err != nil {
			// On a production (compiled-out) build Configure always errors;
			// refusing to start beats silently ignoring a chaos spec.
			fmt.Fprintln(os.Stderr, "cycled: -fault:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cycled: failpoints armed: %s (seed %d)\n", *fault, *faultSeed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := server.Config{
		CacheSize:   *cacheSize,
		Workers:     *workers,
		PlanTimeout: *planTimeout,
		MaxInflight: *maxInflight,
		MaxQueue:    *maxQueue,
		Degrade:     *degrade,
	}
	if err := run(ctx, *addr, *pprofAddr, cfg, *snapshot, *drain, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "cycled:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then drains and returns. onReady, if
// non-nil, receives the bound addresses once the listeners are up (the
// tests use it with ":0" addresses; pprofAddr is "" when profiling is
// disabled). A non-empty snapshot path warms the cache before listening —
// load failures are logged and skipped, never fatal, so a corrupt
// snapshot cannot poison startup — and persists it after the drain.
func run(ctx context.Context, addr, pprofAddr string, cfg server.Config, snapshot string, drain time.Duration, logw io.Writer, onReady func(addr, pprofAddr string)) error {
	srv := server.New(cfg)
	// Not ready until startup work is done: /readyz answers 503 while the
	// snapshot warms, so a load balancer never routes traffic at a cache
	// that is mid-warm.
	srv.SetReady(false)
	if snapshot != "" {
		if loaded, skipped, err := srv.Plans().LoadSnapshotFile(snapshot); err != nil {
			fmt.Fprintf(logw, "cycled: skipping snapshot %s: %v\n", snapshot, err)
		} else if loaded > 0 || skipped > 0 {
			fmt.Fprintf(logw, "cycled: warmed %d plans from %s (%d skipped)\n", loaded, snapshot, skipped)
		}
	}
	var pln net.Listener
	if pprofAddr != "" {
		var err error
		if pln, err = listenPprof(pprofAddr); err != nil {
			srv.Close()
			return err
		}
		defer pln.Close()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	boundPprof := ""
	if pln != nil {
		ps := &http.Server{Handler: pprofMux()}
		// The profiling server lives and dies with the daemon: no drain on
		// shutdown (an interrupted profile download is harmless), just the
		// deferred listener close.
		go ps.Serve(pln)
		boundPprof = pln.Addr().String()
		fmt.Fprintf(logw, "cycled: pprof on http://%s/debug/pprof/\n", boundPprof)
	}
	fmt.Fprintf(logw, "cycled: listening on %s (workers=%d cache=%d plan-timeout=%s)\n",
		ln.Addr(), cfg.Workers, cfg.CacheSize, cfg.PlanTimeout)
	srv.SetReady(true)
	if onReady != nil {
		onReady(ln.Addr().String(), boundPprof)
	}

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Drain in-flight requests before stopping the pool, so no handler is
	// left waiting on a worker that will never run. StartDrain first:
	// /readyz flips to 503 so load balancers route away while the drain
	// completes the requests already here.
	fmt.Fprintln(logw, "cycled: shutting down")
	srv.StartDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	shutErr := hs.Shutdown(shutCtx)
	<-errc // Serve has returned (http.ErrServerClosed)
	srv.Close()
	if snapshot != "" {
		if err := srv.Plans().SaveSnapshotFile(snapshot); err != nil {
			fmt.Fprintf(logw, "cycled: saving snapshot: %v\n", err)
			if shutErr == nil {
				shutErr = err
			}
		} else {
			fmt.Fprintf(logw, "cycled: snapshot saved to %s\n", snapshot)
		}
	}
	return shutErr
}

// listenPprof binds the profiling listener and enforces the loopback-only
// contract: the bound address (not the requested string, which may name
// an interface indirectly) must be a loopback IP, or the listener is
// closed and startup fails. Profiling endpoints expose goroutine stacks
// and heap contents, so an off-host binding is always a misconfiguration.
func listenPprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listen: %w", err)
	}
	tcp, ok := ln.Addr().(*net.TCPAddr)
	if !ok || !tcp.IP.IsLoopback() {
		ln.Close()
		return nil, fmt.Errorf("pprof address %s is not loopback; refusing to expose profiling off-host", ln.Addr())
	}
	return ln, nil
}

// pprofMux routes the standard net/http/pprof surface on a dedicated
// mux. Registration is explicit rather than via the package's
// DefaultServeMux side effect, so the profiling surface exists only on
// the -pprof listener and can never leak onto the serving handler.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
