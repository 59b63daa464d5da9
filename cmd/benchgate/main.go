// Command benchgate enforces the hot-path performance budgets in CI. It
// runs a pinned set of -benchmem benchmarks, parses their allocs/op and
// B/op figures — and, for the search benchmarks, the custom nodes/op
// metric — from `go test` output, and diffs the results against the
// pinned names: a missing benchmark (renamed, deleted, or silently
// skipped) fails the gate just as hard as a blown budget, so neither the
// allocation contract nor the search-effort contract can rot by
// omission.
//
// Budgets are per-metric: MaxAllocs < 0 leaves allocations ungated (the
// exact-search end-to-end benchmarks allocate their solutions), MaxBytes
// 0 leaves bytes ungated, and MaxNodes 0 leaves search effort ungated
// (most benchmarks report no nodes/op metric at all). Node counts are
// deterministic — the exact search is pinned to be bit-identical run to
// run — so a nodes/op ceiling is a hard regression tripwire, not a flaky
// timing threshold.
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
// ungated; MaxBytes is the inclusive B/op budget and MaxNodes the
// inclusive nodes/op budget, each 0 to leave that metric ungated. A
// budget holds for every sub-benchmark line of the benchmark.
type gate struct {
	Bench     string // exact benchmark function name
	Package   string // package pattern passed to go test
	Benchtime string // -benchtime value, e.g. "500x"
	MaxAllocs int64  // inclusive allocs/op budget; < 0 = ungated
	MaxBytes  int64  // inclusive B/op budget; 0 = ungated
	MaxNodes  int64  // inclusive nodes/op budget; 0 = ungated
}

// gates mirrors the hot-path contract documented in DESIGN.md: the
// verify, exact-search inner branch, sweep-evaluate, and warm
// delta-repair paths must stay allocation-free, scc-exact must not
// allocate per enumeration step or per search node (allocation ceiling
// from EXPERIMENTS.md §C, measured +10% headroom), scc-colour must not
// allocate per colouring step or per 2-factor circuit (ceiling from
// EXPERIMENTS.md §Q, measured +10% headroom, over its largest host),
// admitting a general host must stay linear in its size (B/op ceiling
// from EXPERIMENTS.md §Q, measured +10% headroom at n = 1024, where a
// Θ(n²) structure would cost megabytes), a sampled failure sweep must
// not allocate per draw and a warm /plan must not allocate per cycle of
// its answer (ceilings from EXPERIMENTS.md §Q, measured +10% headroom),
// and the symmetry-reduced exact engine must keep its search-effort
// wins (node ceilings from EXPERIMENTS.md §I, measured +10% headroom).
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
	{Bench: "BenchmarkPlanHit", Package: "./internal/server", Benchtime: "200x", MaxAllocs: 20, MaxBytes: 26_266},
	{Bench: "BenchmarkDeltaRepairWarm", Package: "./internal/construct", Benchtime: "500x", MaxAllocs: 0},
	{Bench: "BenchmarkExact", Package: ".", Benchtime: "1x", MaxAllocs: -1, MaxNodes: 850},
	{Bench: "BenchmarkExactCert", Package: ".", Benchtime: "1x", MaxAllocs: -1, MaxNodes: 7_000_000},
}

// result is one parsed benchmark line; each metric is flagged by
// presence, since plain benchmarks report no nodes/op and runs without
// -benchmem report no allocs/op or B/op.
type result struct {
	Name      string // base name: sub-benchmark path and -P suffix stripped
	Allocs    int64
	HasAllocs bool
	Bytes     int64
	HasBytes  bool
	Nodes     int64
	HasNodes  bool
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
			if g.MaxNodes > 0 {
				budgets += fmt.Sprintf("\tmax %d nodes/op", g.MaxNodes)
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
		problems = append(problems, check(g, parseResults(out))...)
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
		if g.MaxAllocs >= 0 {
			switch {
			case !r.HasAllocs:
				problems = append(problems, fmt.Sprintf("%s (%s): no allocs/op figure in its result line",
					g.Bench, g.Package))
			case r.Allocs > g.MaxAllocs:
				problems = append(problems, fmt.Sprintf("%s (%s): %d allocs/op, budget %d",
					g.Bench, g.Package, r.Allocs, g.MaxAllocs))
			}
		}
		if g.MaxBytes > 0 {
			switch {
			case !r.HasBytes:
				problems = append(problems, fmt.Sprintf("%s (%s): no B/op figure in its result line",
					g.Bench, g.Package))
			case r.Bytes > g.MaxBytes:
				problems = append(problems, fmt.Sprintf("%s (%s): %d B/op, budget %d",
					g.Bench, g.Package, r.Bytes, g.MaxBytes))
			}
		}
		if g.MaxNodes > 0 {
			switch {
			case !r.HasNodes:
				problems = append(problems, fmt.Sprintf("%s (%s): no nodes/op metric in its result line",
					g.Bench, g.Package))
			case r.Nodes > g.MaxNodes:
				problems = append(problems, fmt.Sprintf("%s (%s): %d nodes/op, budget %d",
					g.Bench, g.Package, r.Nodes, g.MaxNodes))
			}
		}
	}
	if !seen {
		problems = append(problems, fmt.Sprintf("%s (%s): no result line — benchmark missing or renamed",
			g.Bench, g.Package))
	}
	return problems
}

// parseResults extracts every benchmark line carrying an allocs/op, B/op
// or nodes/op figure. The parse keys off field positions rather than column
// offsets: each count is the field immediately before its unit, and the
// benchmark name is field 0 with any sub-benchmark path and GOMAXPROCS
// suffix stripped. nodes/op arrives via b.ReportMetric as a float
// ("752244 nodes/op" or "1.25e+07 nodes/op"), so it parses as a float
// and rounds. Lines that do not fit (headers, PASS/ok trailers, partial
// output) are skipped.
func parseResults(out []byte) []result {
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
			case "nodes/op":
				if v, err := strconv.ParseFloat(fields[i-1], 64); err == nil {
					r.Nodes, r.HasNodes = int64(v+0.5), true
				}
			}
		}
		if r.HasAllocs || r.HasBytes || r.HasNodes {
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
