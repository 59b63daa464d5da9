// Command benchgate enforces the hot-path performance budgets in CI. It
// runs a pinned set of -benchmem benchmarks, parses their allocs/op and
// B/op figures — and, where a gate names one, a custom effort count
// reported through b.ReportMetric (nodes/op for the exact search,
// probes/op for the greedy constructor) — from `go test` output, and
// diffs the results against the pinned names: a missing benchmark
// (renamed, deleted, or silently skipped) fails the gate just as hard as
// a blown budget, so neither the allocation contract nor the effort
// contract can rot by omission.
//
// Budgets are per-metric: MaxAllocs < 0 leaves allocations ungated (the
// exact-search end-to-end benchmarks allocate their solutions), MaxBytes
// 0 leaves bytes ungated, and an empty Metric leaves effort ungated
// (most benchmarks report no effort count). Effort counts are
// deterministic — the exact search and the greedy constructor are pinned
// to be bit-identical run to run — so their ceilings are hard regression
// tripwires, not flaky timing thresholds.
//
// Usage:
//
//	go run ./cmd/benchgate            # run every pinned gate
//	go run ./cmd/benchgate -list      # print the pinned set and exit
//
// Exit status: 0 all gates hold, 1 any gate violated, 2 a benchmark
// invocation itself failed.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// gate pins one benchmark to its budgets. Benchtime uses the fixed-
// iteration "Nx" form so the run cost stays bounded in CI. MaxAllocs is
// the inclusive allocs/op budget, or negative to leave allocations
// ungated; MaxBytes is the inclusive B/op budget, 0 to leave bytes
// ungated; Metric names the unit of a b.ReportMetric effort count and
// MaxMetric is its inclusive budget, Metric "" to leave effort ungated. A
// budget holds for every sub-benchmark line of the benchmark.
type gate struct {
	Bench     string // exact benchmark function name
	Package   string // package pattern passed to go test
	Benchtime string // -benchtime value, e.g. "500x"
	MaxAllocs int64  // inclusive allocs/op budget; < 0 = ungated
	MaxBytes  int64  // inclusive B/op budget; 0 = ungated
	Metric    string // effort unit, e.g. "nodes/op"; "" = ungated
	MaxMetric int64  // inclusive budget for Metric
}

// gates mirrors the hot-path contract documented in DESIGN.md: the
// verify, exact-search inner branch and sweep-evaluate paths must stay
// allocation-free, a warm delta patch must reuse its Θ(n²) tally and
// allocate only its result and the cycles greedy adds (allocs and B/op
// ceilings from EXPERIMENTS.md §V, measured +10% headroom), scc-exact must not
// allocate per enumeration step or per search node (allocation ceiling
// from EXPERIMENTS.md §C, measured +10% headroom), scc-colour must not
// allocate per colouring step or per 2-factor circuit (ceiling from
// EXPERIMENTS.md §Q, measured +10% headroom, over its largest host),
// admitting a general host must stay linear in its size (B/op ceiling
// from EXPERIMENTS.md §Q, measured +10% headroom at n = 1024, where a
// Θ(n²) structure would cost megabytes), a sampled failure sweep must
// not allocate per draw and a warm /plan must not allocate per cycle of
// its answer (ceilings from EXPERIMENTS.md §Q, the allocs ceiling
// re-measured in §U, measured +10% headroom), the guards the benchmark
// daemon runs on a warm /plan — its deadline, the degrade decision's
// cost-model lookup and admission — must not add allocations back
// (ceiling from EXPERIMENTS.md §U, measured +10% headroom),
// the symmetry-reduced exact engine must keep its search-effort wins
// (node ceilings from EXPERIMENTS.md §I, measured +10% headroom), and
// the greedy constructor's residual reads through its need probe — the
// distance cursors and the candidate scoring — must not grow back
// towards every pair slot per cycle (probe ceiling from EXPERIMENTS.md
// §R, measured +10% headroom over its n = 1023 hub line), and its
// redundancy pass must not build a fresh Θ(n²) coverage tally per call
// (B/op ceiling from EXPERIMENTS.md §T, measured +10% headroom over its
// n = 1023 hub line, which reads 2.26 MB with a fresh tally per call).
// That gate runs 20 iterations: the pooled tally is still allocated once
// for each P that first serves it, and over 3 iterations each such
// allocation adds 700 KB to B/op.
var gates = []gate{
	{Bench: "BenchmarkVerifyWarm", Package: "./internal/cover", Benchtime: "500x", MaxAllocs: 0},
	{Bench: "BenchmarkGeneralVerify", Package: "./internal/cover", Benchtime: "500x", MaxAllocs: 0},
	{Bench: "BenchmarkSCCCoverCubic", Package: "./internal/construct", Benchtime: "3x", MaxAllocs: -1},
	{Bench: "BenchmarkSCCExactNodeLimited", Package: "./internal/construct", Benchtime: "3x", MaxAllocs: 8_864},
	{Bench: "BenchmarkSCCColour", Package: "./internal/construct", Benchtime: "20x", MaxAllocs: 27},
	{Bench: "BenchmarkParseGeneral", Package: "./internal/instance", Benchtime: "20x", MaxAllocs: -1, MaxBytes: 227_865},
	{Bench: "BenchmarkExactInnerBranch", Package: "./internal/construct", Benchtime: "5x", MaxAllocs: 0},
	{Bench: "BenchmarkSweepEvaluate", Package: "./internal/survive", Benchtime: "2000x", MaxAllocs: 0},
	{Bench: "BenchmarkSweep", Package: "./internal/survive", Benchtime: "20x", MaxAllocs: 35},
	{Bench: "BenchmarkPlanHit", Package: "./internal/server", Benchtime: "200x", MaxAllocs: 19, MaxBytes: 26_266},
	{Bench: "BenchmarkPlanHitGuarded", Package: "./internal/server", Benchtime: "200x", MaxAllocs: 25},
	{Bench: "BenchmarkDeltaRepairWarm", Package: "./internal/construct", Benchtime: "500x", MaxAllocs: 6, MaxBytes: 652},
	{Bench: "BenchmarkGreedy", Package: "./internal/construct", Benchtime: "20x", MaxAllocs: -1, MaxBytes: 512_327, Metric: "probes/op", MaxMetric: 2_169_768},
	{Bench: "BenchmarkExact", Package: ".", Benchtime: "1x", MaxAllocs: -1, Metric: "nodes/op", MaxMetric: 850},
	{Bench: "BenchmarkExactCert", Package: ".", Benchtime: "1x", MaxAllocs: -1, Metric: "nodes/op", MaxMetric: 7_000_000},
}

// result is one parsed benchmark line; each metric is flagged by
// presence, since plain benchmarks report no effort count and runs
// without -benchmem report no allocs/op or B/op.
type result struct {
	Name      string // base name: sub-benchmark path and -P suffix stripped
	Allocs    int64
	HasAllocs bool
	Bytes     int64
	HasBytes  bool
	Metric    int64 // the effort count in the unit parseResults was asked for
	HasMetric bool
}

func main() {
	list := flag.Bool("list", false, "print the pinned gate set and exit")
	flag.Parse()
	if *list {
		for _, g := range gates {
			budgets := ""
			if g.MaxAllocs >= 0 {
				budgets += fmt.Sprintf("\tmax %d allocs/op", g.MaxAllocs)
			}
			if g.MaxBytes > 0 {
				budgets += fmt.Sprintf("\tmax %d B/op", g.MaxBytes)
			}
			if g.Metric != "" {
				budgets += fmt.Sprintf("\tmax %d %s", g.MaxMetric, g.Metric)
			}
			fmt.Printf("%s\t%s\t-benchtime %s%s\n", g.Bench, g.Package, g.Benchtime, budgets)
		}
		return
	}
	var problems []string
	for _, g := range gates {
		out, err := runGate(g)
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", g.Bench, err)
			os.Exit(2)
		}
		problems = append(problems, check(g, parseResults(out, g.Metric))...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "FAIL: "+p)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d gates hold\n", len(gates))
}

// runGate invokes go test for one pinned benchmark and returns its
// combined output.
func runGate(g gate) ([]byte, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", "^"+g.Bench+"$", "-benchmem", "-benchtime", g.Benchtime, g.Package)
	return cmd.CombinedOutput()
}

// check diffs the parsed results against one gate's pinned name and
// budgets, returning human-readable violations. A gated metric that the
// benchmark stopped reporting is itself a violation: silence must not
// read as compliance.
func check(g gate, results []result) []string {
	var problems []string
	seen := false
	for _, r := range results {
		if r.Name != g.Bench {
			continue
		}
		seen = true
		for _, m := range []struct {
			gated      bool
			unit, kind string // kind: "figure" for go test's own, "metric" for b.ReportMetric's
			got, max   int64
			has        bool
		}{
			{g.MaxAllocs >= 0, "allocs/op", "figure", r.Allocs, g.MaxAllocs, r.HasAllocs},
			{g.MaxBytes > 0, "B/op", "figure", r.Bytes, g.MaxBytes, r.HasBytes},
			{g.Metric != "", g.Metric, "metric", r.Metric, g.MaxMetric, r.HasMetric},
		} {
			switch {
			case !m.gated:
			case !m.has:
				problems = append(problems, fmt.Sprintf("%s (%s): no %s %s in its result line",
					g.Bench, g.Package, m.unit, m.kind))
			case m.got > m.max:
				problems = append(problems, fmt.Sprintf("%s (%s): %d %s, budget %d",
					g.Bench, g.Package, m.got, m.unit, m.max))
			}
		}
	}
	if !seen {
		problems = append(problems, fmt.Sprintf("%s (%s): no result line — benchmark missing or renamed",
			g.Bench, g.Package))
	}
	return problems
}

// parseResults extracts every benchmark line carrying an allocs/op or
// B/op figure or a count in the metric unit ("" for none). The parse
// keys off field positions rather than column offsets: each count is the
// field immediately before its unit, and the benchmark name is field 0
// with any sub-benchmark path and GOMAXPROCS suffix stripped. The metric
// arrives via b.ReportMetric as a float ("752244 nodes/op" or "1.25e+07
// nodes/op"), so it parses as a float and rounds. Lines that do not fit
// (headers, PASS/ok trailers, partial output) are skipped.
func parseResults(out []byte, metric string) []result {
	var results []result
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		r := result{Name: baseName(fields[0])}
		for i := 2; i < len(fields); i++ {
			switch fields[i] {
			case "allocs/op":
				if v, err := strconv.ParseInt(fields[i-1], 10, 64); err == nil {
					r.Allocs, r.HasAllocs = v, true
				}
			case "B/op":
				if v, err := strconv.ParseInt(fields[i-1], 10, 64); err == nil {
					r.Bytes, r.HasBytes = v, true
				}
			case metric:
				if v, err := strconv.ParseFloat(fields[i-1], 64); err == nil {
					r.Metric, r.HasMetric = int64(v+0.5), true
				}
			}
		}
		if r.HasAllocs || r.HasBytes || r.HasMetric {
			results = append(results, r)
		}
	}
	return results
}

// baseName reduces a reported benchmark name to its function name:
// sub-benchmark segments after "/" and the "-P" GOMAXPROCS suffix are
// dropped.
func baseName(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}
