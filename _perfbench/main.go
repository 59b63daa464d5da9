// Command perfbench is the repository's end-to-end benchmark. It drives a
// cycled daemon, running as its own process with the production flags,
// through one seeded, count-bounded closed-loop workload on two
// connections, checks every answer, and prints every end-to-end metric by
// name and unit. With -trace 1 it also replays the same sequence
// in-process with a span around each layer's public entry point and
// prints the per-layer metrics. See README.md.
//
// It is built and run by run.sh:
//
//	bash _perfbench/run.sh --workload cold-ring --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9410, "failed": 0, "metrics": {...}}
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/instance"
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(Workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := flag.Int("seconds", 10, "run length; sets the request count, sized for about this many seconds on a 2-vCPU host")
	trace := flag.Int("trace", 0, "1: also replay the sequence in-process with per-layer spans, and report the per-layer metrics")
	root := flag.String("root", ".", "root of the checkout to measure")
	cycled := flag.String("cycled", "", "cycled binary built from the checkout")
	flag.Parse()
	if *cycled == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -cycled <bin> --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	res, err := run(config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: *root, cycled: *cycled, setups: setups,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setups is the number of daemon launches per run; setup_s is the
// median of their set-up times.
const setups = 5

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	cycled   string
	setups   int
}

// Result is the final JSON line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config, w io.Writer) (Result, error) {
	seq, err := Generate(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return Result{}, err
	}
	env := recordEnv(cfg.root, daemonFlags)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(w, "env %s\n", envJSON)
	dir := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	var snapshot []byte
	if len(seq.Snapshot) > 0 {
		if snapshot, err = prepareSnapshot(seq.Snapshot); err != nil {
			return Result{}, err
		}
	}
	dr, err := runDaemon(cfg, seq, snapshot, dir)
	if err != nil {
		return Result{}, err
	}
	e2e := dr.metrics()
	fmt.Fprintf(w, "workload %s seed %d: %d timed requests on %d connections (closed loop) in %.3fs; %d failed\n",
		cfg.workload, cfg.seed, dr.out.attempted, conns, dr.elapsed.Seconds(), dr.out.failed)
	printMetrics(w, e2e)
	fmt.Fprintf(w, "%-28s %14.6f ms (the generator's own CPU, not counted above)\n", "generator_cpu_ms_per_req", ms(dr.genCPU)/float64(dr.out.attempted))
	fmt.Fprintf(w, "%-28s %14.6f ratio (CPU time the hypervisor took from this guest while timing; reported, never used to normalise)\n", "host_steal_share", dr.steal)
	fmt.Fprintf(w, "%-28s %v (boot %v)\n", "set-ups", dr.setups, dr.boots)
	fmt.Fprintf(w, "%-24s %14.6f %-8s (%d failed of %d attempted)\n", "error_rate", ratio(float64(dr.out.failed), float64(dr.out.attempted)), "ratio", dr.out.failed, dr.out.attempted)
	fmt.Fprintf(w, "%-24s %14d %-8s (samples beyond p99; %d samples)\n", "latency_p99_beyond", dr.beyondP99(), "count", dr.out.attempted)
	printFailures(w, dr.out.failures)
	res := Result{
		Correct:   dr.out.failed == 0,
		Attempted: dr.out.attempted,
		Failed:    dr.out.failed,
		Metrics:   e2e,
	}
	if !cfg.trace {
		return res, nil
	}
	tr, err := replay(cfg, seq, snapshot, dr)
	if err != nil {
		return Result{}, err
	}
	layers, problems := tr.metrics(cfg.workload, dr)
	fmt.Fprintln(w, "per-layer metrics (traced in-process replay; ms are mean self time per request):")
	tr.printSummary(w)
	printMetrics(w, layers)
	fmt.Fprintf(w, "tracing overhead: traced replay %.1f req/s vs untraced daemon %.1f req/s (%.1f%% slower)\n",
		tr.throughput(), e2e["throughput_rps"].Value, 100*layers["trace.overhead_ratio"].Value)
	for _, p := range problems {
		fmt.Fprintln(w, "trace check failed:", p)
	}
	return Result{
		Correct:   res.Correct && len(problems) == 0 && tr.failed == 0,
		Attempted: res.Attempted + tr.attempted,
		Failed:    res.Failed + tr.failed,
		Metrics:   layers,
	}, nil
}

func printMetrics(w io.Writer, m map[string]Metric) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(w, "%-28s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printFailures(w io.Writer, failures map[string]int) {
	msgs := slices.Sorted(maps.Keys(failures))
	for i, k := range msgs {
		if i == 10 {
			fmt.Fprintf(w, "… and %d more kinds of failure\n", len(msgs)-i)
			break
		}
		fmt.Fprintf(w, "FAILED ×%d: %s\n", failures[k], k)
	}
}

// prepareSnapshot plans the λK_n items in-process and returns the cache
// snapshot the daemon boots from.
func prepareSnapshot(items []Item) ([]byte, error) {
	plans := cache.New(0)
	ctx := context.Background()
	for _, it := range items {
		in, err := instance.Parse(it.N, it.Spec)
		if err != nil {
			return nil, err
		}
		if _, _, err := plans.CoverCtx(ctx, in, cache.Options{}); err != nil {
			return nil, fmt.Errorf("snapshot plan %v: %w", it, err)
		}
	}
	var b bytes.Buffer
	if err := plans.SaveSnapshot(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// daemonResult is what the untraced daemon run measured.
type daemonResult struct {
	setups, boots []time.Duration
	elapsed       time.Duration // timed phase
	recs          []record
	out           outcome
	before, after counters
	hwm           int64
	genCPU        time.Duration // the generator's own CPU over the timed phase
	steal         float64       // the machine's steal share over the timed phase
	preloaded     map[Item]*planBody
}

// runDaemon launches the daemon cfg.setups times. Each launch boots (with
// the snapshot, when there is one), preloads the working set and runs the
// warm-up; all but the last are then shut down, and the last runs the
// timed phase between two readings of the daemon's counters.
func runDaemon(cfg config, seq *Sequence, snapshot []byte, dir string) (*daemonResult, error) {
	dr := &daemonResult{}
	seed := maphash.MakeSeed()
	warmup, err := renderAll(seq.Warmup)
	if err != nil {
		return nil, err
	}
	timed, err := renderAll(seq.Timed)
	if err != nil {
		return nil, err
	}
	for s := 0; s < cfg.setups; s++ {
		snapPath := ""
		if snapshot != nil {
			// A fresh copy per launch: the daemon rewrites it on shutdown.
			snapPath = filepath.Join(dir, "snapshot.json")
			if err := os.WriteFile(snapPath, snapshot, 0o644); err != nil {
				return nil, err
			}
		}
		d, err := startDaemon(cfg.cycled, snapPath)
		if err != nil {
			return nil, err
		}
		cs := newConns(d.addr, seed)
		fail := func(err error) (*daemonResult, error) {
			closeConns(cs)
			d.kill()
			return nil, err
		}
		plans, err := preload(cs[0], seq.Preload)
		if err != nil {
			return fail(err)
		}
		if s == 0 {
			dr.preloaded = plans
			vb, err := verifyBodies(plans)
			if err == nil {
				err = withVerifyBodies(seq.Warmup, warmup, vb)
			}
			if err == nil {
				err = withVerifyBodies(seq.Timed, timed, vb)
			}
			if err != nil {
				return fail(err)
			}
		}
		drive(cs, seq.Warmup, warmup, false)
		dr.setups = append(dr.setups, time.Since(d.launched))
		dr.boots = append(dr.boots, d.boot)
		if s < cfg.setups-1 {
			closeConns(cs)
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping daemon: %w", err)
			}
			continue
		}
		meta := &http.Client{Timeout: 30 * time.Second}
		ctx := context.Background()
		if dr.before, err = d.read(ctx, meta); err != nil {
			return fail(err)
		}
		genBefore, _ := procCPU(os.Getpid())
		stealBefore, totalBefore, _ := hostCPU()
		dr.elapsed = drive(cs, seq.Timed, timed, true)
		stealAfter, totalAfter, _ := hostCPU()
		genAfter, _ := procCPU(os.Getpid())
		dr.genCPU = genAfter - genBefore
		dr.steal = ratio(float64(stealAfter-stealBefore), float64(totalAfter-totalBefore))
		if dr.after, err = d.read(ctx, meta); err != nil {
			return fail(err)
		}
		if dr.hwm, err = procHWM(d.cmd.Process.Pid); err != nil {
			return fail(err)
		}
		closeConns(cs)
		meta.CloseIdleConnections()
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("stopping daemon: %w", err)
		}
		var bodies map[uint64][]byte
		dr.recs, bodies = collect(cs)
		dr.out = newChecker(seq, bodies, dr.preloaded).run(dr.recs)
	}
	return dr, nil
}

// preload fetches each working-set item once, in order, and keeps the
// plans the daemon answered.
func preload(c *httpConn, items []Item) (map[Item]*planBody, error) {
	plans := map[Item]*planBody{}
	for _, it := range items {
		w, _ := render(&Request{Kind: KindPlan, Item: it})
		resp, err := c.roundTrip(w)
		if err != nil {
			return nil, fmt.Errorf("preload %v: %w", it, err)
		}
		p := &planBody{}
		if err := json.Unmarshal(c.buf.Bytes(), p); err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("preload %v: status %d: %v", it, resp.StatusCode, err)
		}
		plans[it] = p
	}
	return plans, nil
}

// verifyBodies builds the /verify body of each preloaded plan.
func verifyBodies(plans map[Item]*planBody) (map[Item][]byte, error) {
	out := map[Item][]byte{}
	for it, p := range plans {
		b, err := json.Marshal(struct {
			N      int     `json:"n"`
			Cycles [][]int `json:"cycles"`
			Demand string  `json:"demand"`
		}{it.N, p.Cycles, it.Spec})
		if err != nil {
			return nil, err
		}
		out[it] = b
	}
	return out, nil
}

// metrics computes the end-to-end metrics of the daemon run.
func (dr *daemonResult) metrics() map[string]Metric {
	lat := make([]float64, len(dr.recs))
	for i, r := range dr.recs {
		lat[i] = ms(r.lat)
	}
	p50, _ := quantile(lat, 0.50)
	p99, _ := quantile(lat, 0.99)
	setups := make([]float64, len(dr.setups))
	for i, s := range dr.setups {
		setups[i] = s.Seconds()
	}
	n := float64(dr.out.attempted)
	return map[string]Metric{
		"throughput_rps": {float64(dr.out.attempted-dr.out.failed) / dr.elapsed.Seconds(), "req/s"},
		"latency_p50_ms": {p50, "ms"},
		"latency_p99_ms": {p99, "ms"},
		"cover_excess":   {dr.out.coverExcess(), "ratio"},
		"cpu_ms_per_req": {ms(dr.after.cpu-dr.before.cpu) / n, "ms"},
		"peak_rss_mb":    {float64(dr.hwm) / (1 << 20), "MiB"},
		"setup_s":        {median(setups), "s"},
	}
}

// beyondP99 counts the latency samples beyond the reported p99.
func (dr *daemonResult) beyondP99() int {
	lat := make([]float64, len(dr.recs))
	for i, r := range dr.recs {
		lat[i] = ms(r.lat)
	}
	_, beyond := quantile(lat, 0.99)
	return beyond
}

// delta is a counter's growth over the timed phase, summed over every
// sample whose name{labels} starts with prefix.
func (dr *daemonResult) delta(prefix string) float64 {
	t := 0.0
	for k, v := range dr.after.metrics {
		if strings.HasPrefix(k, prefix) {
			t += v - dr.before.metrics[k]
		}
	}
	return t
}

// daemonLayers are the per-layer metrics read from the daemon itself.
func (dr *daemonResult) daemonLayers() map[string]Metric {
	n := float64(dr.out.attempted)
	boots := make([]float64, len(dr.boots))
	for i, b := range dr.boots {
		boots[i] = ms(b)
	}
	hits, misses := dr.delta("cycled_cache_hits_total"), dr.delta("cycled_cache_misses_total")
	coalesced := dr.delta("cycled_cache_coalesced_total")
	lookups := hits + misses + coalesced
	poolJoins := dr.delta("cycled_pool_coalesced_total")
	return map[string]Metric{
		"cycled.boot_ms":              {median(boots), "ms"},
		"cycled.allocs_per_req":       {(dr.after.mallocs - dr.before.mallocs) / n, "count"},
		"cycled.gc_per_kreq":          {1000 * (dr.after.numGC - dr.before.numGC) / n, "count"},
		"server.pool_coalesced_ratio": {ratio(poolJoins, poolJoins+dr.delta("cycled_pool_executed_total")), "ratio"},
		"cache.hit_ratio":             {ratio(hits, lookups), "ratio"},
		"cache.coalesced_ratio":       {ratio(coalesced, lookups), "ratio"},
		"cache.evictions_per_req":     {dr.delta("cycled_cache_evictions_total") / n, "count"},
	}
}
