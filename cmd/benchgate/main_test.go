package main

import (
	"strings"
	"testing"
)

// sampleOutput is a realistic go test -benchmem transcript: headers, a
// plain result, a sub-benchmark, a search benchmark carrying the custom
// nodes/op metric, a noise line, and the trailers.
const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/cyclecover/cyclecover/internal/cover
cpu: fake
BenchmarkVerifyWarm-8   	     500	      2104 ns/op	       0 B/op	       0 allocs/op
BenchmarkVerifyWarm/n=19-8	     500	      4110 ns/op	      16 B/op	       2 allocs/op
some unrelated line with allocs/op mentioned but wrong shape
BenchmarkExact-8        	      18	  66870146 ns/op	    752244 nodes/op	  145512 B/op	     743 allocs/op
BenchmarkExactCert      	       1	4900000000 ns/op	 4.0e+07 nodes/op	    1024 B/op	      37 allocs/op
PASS
ok  	github.com/cyclecover/cyclecover/internal/cover	1.234s
`

func TestParseResults(t *testing.T) {
	got := parseResults([]byte(sampleOutput), "nodes/op")
	want := []result{
		{Name: "BenchmarkVerifyWarm", Allocs: 0, HasAllocs: true, Bytes: 0, HasBytes: true},
		{Name: "BenchmarkVerifyWarm", Allocs: 2, HasAllocs: true, Bytes: 16, HasBytes: true},
		{Name: "BenchmarkExact", Allocs: 743, HasAllocs: true, Bytes: 145512, HasBytes: true, Metric: 752244, HasMetric: true},
		{Name: "BenchmarkExactCert", Allocs: 37, HasAllocs: true, Bytes: 1024, HasBytes: true, Metric: 40_000_000, HasMetric: true},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseResultsSkipsMalformed(t *testing.T) {
	malformed := strings.Join([]string{
		"BenchmarkBroken-8 500 2 ns/op NaN allocs/op", // non-numeric count
		"allocs/op",                   // too short
		"NotABenchmark 1 0 allocs/op", // name without Benchmark prefix
		"BenchmarkNodesOnly-8 1 2 ns/op 1500 nodes/op",  // nodes metric without -benchmem
		"BenchmarkTail-8 1 7 allocs/op",                 // valid minimal shape
		"BenchmarkBadNodes-8 1 2 ns/op wat nodes/op",    // non-numeric nodes, no allocs
		"BenchmarkBadBytes-8 1 2 ns/op 1.5 B/op",        // B/op is an integer count
		"BenchmarkBytesOnly-8 1 2 ns/op 4096 B/op",      // bytes without an allocs figure
		"BenchmarkOtherUnit-8 1 2 ns/op 1500 probes/op", // an effort unit not asked for
	}, "\n")
	got := parseResults([]byte(malformed), "nodes/op")
	want := []result{
		{Name: "BenchmarkNodesOnly", Metric: 1500, HasMetric: true},
		{Name: "BenchmarkTail", Allocs: 7, HasAllocs: true},
		{Name: "BenchmarkBytesOnly", Bytes: 4096, HasBytes: true},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkVerifyWarm-8":        "BenchmarkVerifyWarm",
		"BenchmarkVerifyWarm":          "BenchmarkVerifyWarm",
		"BenchmarkVerifyWarm/n=19-8":   "BenchmarkVerifyWarm",
		"BenchmarkSweep/k=2/dense-16":  "BenchmarkSweep",
		"BenchmarkOdd-name":            "BenchmarkOdd-name", // suffix not numeric
		"BenchmarkDeltaRepairWarm-256": "BenchmarkDeltaRepairWarm",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckPassesWithinBudget(t *testing.T) {
	g := gate{Bench: "BenchmarkVerifyWarm", Package: "./internal/cover", MaxAllocs: 0}
	problems := check(g, []result{{Name: "BenchmarkVerifyWarm", Allocs: 0, HasAllocs: true}})
	if len(problems) != 0 {
		t.Fatalf("unexpected problems: %v", problems)
	}
}

func TestCheckFlagsNonzeroAllocs(t *testing.T) {
	g := gate{Bench: "BenchmarkVerifyWarm", Package: "./internal/cover", MaxAllocs: 0}
	problems := check(g, []result{{Name: "BenchmarkVerifyWarm", Allocs: 3, HasAllocs: true}})
	if len(problems) != 1 || !strings.Contains(problems[0], "3 allocs/op") {
		t.Fatalf("problems = %v, want one nonzero-allocs violation", problems)
	}
}

func TestCheckFlagsMissingBenchmark(t *testing.T) {
	g := gate{Bench: "BenchmarkVerifyWarm", Package: "./internal/cover", MaxAllocs: 0}
	problems := check(g, []result{{Name: "BenchmarkSomethingElse", Allocs: 0, HasAllocs: true}})
	if len(problems) != 1 || !strings.Contains(problems[0], "missing or renamed") {
		t.Fatalf("problems = %v, want one missing-benchmark violation", problems)
	}
}

// TestCheckNodesBudget exercises the nodes/op contract the same way the
// alloc contract is exercised: within budget passes, over budget fails,
// and a gated benchmark that stopped reporting the metric fails too.
func TestCheckNodesBudget(t *testing.T) {
	g := gate{Bench: "BenchmarkExactCert", Package: ".", MaxAllocs: -1, Metric: "nodes/op", MaxMetric: 1000}

	ok := []result{{Name: "BenchmarkExactCert", Allocs: 99, HasAllocs: true, Metric: 1000, HasMetric: true}}
	if problems := check(g, ok); len(problems) != 0 {
		t.Fatalf("within-budget problems: %v (allocs must be ungated at MaxAllocs<0)", problems)
	}

	over := []result{{Name: "BenchmarkExactCert", Metric: 1001, HasMetric: true}}
	if problems := check(g, over); len(problems) != 1 || !strings.Contains(problems[0], "1001 nodes/op") {
		t.Fatalf("problems = %v, want one over-node-budget violation", problems)
	}

	silent := []result{{Name: "BenchmarkExactCert", Allocs: 0, HasAllocs: true}}
	if problems := check(g, silent); len(problems) != 1 || !strings.Contains(problems[0], "no nodes/op metric") {
		t.Fatalf("problems = %v, want one missing-metric violation", problems)
	}
}

// TestCheckBytesBudget exercises the B/op contract: within budget
// passes, over budget on any sub-benchmark line fails, a gated
// benchmark that stopped reporting B/op fails, and MaxBytes 0 leaves
// bytes ungated.
func TestCheckBytesBudget(t *testing.T) {
	g := gate{Bench: "BenchmarkParseGeneral", Package: "./internal/instance", MaxAllocs: -1, MaxBytes: 1000}

	ok := []result{
		{Name: "BenchmarkParseGeneral", Allocs: 31, HasAllocs: true, Bytes: 200, HasBytes: true},
		{Name: "BenchmarkParseGeneral", Allocs: 32, HasAllocs: true, Bytes: 1000, HasBytes: true},
	}
	if problems := check(g, ok); len(problems) != 0 {
		t.Fatalf("within-budget problems: %v", problems)
	}

	over := []result{
		{Name: "BenchmarkParseGeneral", Bytes: 200, HasBytes: true},
		{Name: "BenchmarkParseGeneral", Bytes: 2_546_238, HasBytes: true},
	}
	if problems := check(g, over); len(problems) != 1 || !strings.Contains(problems[0], "2546238 B/op, budget 1000") {
		t.Fatalf("problems = %v, want one over-bytes-budget violation", problems)
	}

	silent := []result{{Name: "BenchmarkParseGeneral", Allocs: 31, HasAllocs: true}}
	if problems := check(g, silent); len(problems) != 1 || !strings.Contains(problems[0], "no B/op figure") {
		t.Fatalf("problems = %v, want one missing-metric violation", problems)
	}

	g.MaxBytes = 0
	if problems := check(g, over); len(problems) != 0 {
		t.Fatalf("ungated bytes flagged: %v", problems)
	}
}

// TestGatesMatchPinnedContract guards the pinned set itself: the four
// allocation-free hot paths (including the general-topology walk
// verifier), the allocation and bytes ceilings of a warm delta patch,
// the cubic scc pipeline smoke, the allocation ceilings of a
// node-limited scc-exact run, of scc-colour and of the failure sweeps,
// the bytes ceiling of general-host admission, the allocation and bytes
// ceilings of a warm /plan, the allocation ceiling of a warm /plan under
// the benchmark daemon's guards, the two node-budgeted search benchmarks and
// the probe- and bytes-budgeted greedy constructor. Editing the set is a deliberate
// act that must touch this test too.
func TestGatesMatchPinnedContract(t *testing.T) {
	type budget struct {
		pkg       string
		allocs    int64
		bytes     int64  // the B/op ceiling; 0 = ungated
		metric    string // the effort unit; "" = ungated
		maxMetric int64  // the effort ceiling
	}
	want := map[string]budget{
		"BenchmarkVerifyWarm":          {pkg: "./internal/cover"},
		"BenchmarkGeneralVerify":       {pkg: "./internal/cover"},
		"BenchmarkSCCCoverCubic":       {pkg: "./internal/construct", allocs: -1},
		"BenchmarkSCCExactNodeLimited": {pkg: "./internal/construct", allocs: 8_864},
		"BenchmarkSCCColour":           {pkg: "./internal/construct", allocs: 27},
		"BenchmarkParseGeneral":        {pkg: "./internal/instance", allocs: -1, bytes: 227_865},
		"BenchmarkExactInnerBranch":    {pkg: "./internal/construct"},
		"BenchmarkSweepEvaluate":       {pkg: "./internal/survive"},
		"BenchmarkSweep":               {pkg: "./internal/survive", allocs: 35},
		"BenchmarkPlanHit":             {pkg: "./internal/server", allocs: 19, bytes: 26_266},
		"BenchmarkPlanHitGuarded":      {pkg: "./internal/server", allocs: 25},
		"BenchmarkDeltaRepairWarm":     {pkg: "./internal/construct", allocs: 6, bytes: 652},
		"BenchmarkGreedy":              {pkg: "./internal/construct", allocs: -1, bytes: 512_327, metric: "probes/op", maxMetric: 2_169_768},
		"BenchmarkExact":               {pkg: ".", allocs: -1, metric: "nodes/op", maxMetric: 850},
		"BenchmarkExactCert":           {pkg: ".", allocs: -1, metric: "nodes/op", maxMetric: 7_000_000},
	}
	if len(gates) != len(want) {
		t.Fatalf("%d gates pinned, want %d", len(gates), len(want))
	}
	for _, g := range gates {
		w, ok := want[g.Bench]
		if !ok {
			t.Errorf("unexpected gate %q", g.Bench)
			continue
		}
		if g.Package != w.pkg {
			t.Errorf("%s pinned to %s, want %s", g.Bench, g.Package, w.pkg)
		}
		if w.allocs < 0 {
			if g.MaxAllocs >= 0 {
				t.Errorf("%s allocs budget %d, want ungated (<0)", g.Bench, g.MaxAllocs)
			}
		} else if g.MaxAllocs != w.allocs {
			t.Errorf("%s allocs budget %d, want %d", g.Bench, g.MaxAllocs, w.allocs)
		}
		if g.MaxBytes != w.bytes {
			t.Errorf("%s bytes budget %d, want %d", g.Bench, g.MaxBytes, w.bytes)
		}
		if g.Metric != w.metric || g.MaxMetric != w.maxMetric {
			t.Errorf("%s effort budget %d %q, want %d %q", g.Bench, g.MaxMetric, g.Metric, w.maxMetric, w.metric)
		}
		if !strings.HasSuffix(g.Benchtime, "x") {
			t.Errorf("%s benchtime %q, want fixed-iteration Nx form", g.Bench, g.Benchtime)
		}
	}
}
