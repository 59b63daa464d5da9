package construct

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// sccFamilies is the committed general-topology table: every spec the
// wire format offers, with the provably optimal shortest-cycle-cover
// length the exact strategy must reach. The snark rows double as the
// literature pin: Petersen needs 4/3·m + 1 = 21 (the unique snark that
// exceeds 4/3·m), the Blanuša snarks and flower snarks meet 4/3·m
// exactly (Brinkmann–Goedgebeur–Hägglund–Markström).
var sccFamilies = []struct {
	spec    string
	n       int
	optimal int
	snark   bool
}{
	{"petersen", 10, 21, true},
	{"blanusa:1", 18, 36, true},
	{"blanusa:2", 18, 36, true},
	{"flower:5", 20, 40, true},
	{"flower:7", 28, 56, true},
	{"prism:3", 6, 12, false},
	{"prism:4", 8, 16, false},
	{"cubic:3", 12, 24, false},
	{"edges:0-1,1-2,2-3,3-0,0-2,1-3", 4, 8, false}, // K_4 is cubic: 4/3·m = 8 (two 4-cycles)
	{"adj:1,2;0,2;0,1", 3, 3, false},               // triangle
}

func TestSCCExactOptimalLengths(t *testing.T) {
	for _, tc := range sccFamilies {
		t.Run(tc.spec, func(t *testing.T) {
			in, err := instance.Parse(tc.n, tc.spec)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			out, err := (SCCExact{}).Solve(context.Background(), in, Options{})
			if err != nil {
				t.Fatalf("scc-exact: %v", err)
			}
			if err := cover.VerifyGeneral(out.Covering, in.Host); err != nil {
				t.Fatalf("invalid cover: %v", err)
			}
			got := out.Covering.TotalLength()
			if got != tc.optimal {
				t.Fatalf("length = %d, want %d", got, tc.optimal)
			}
			if !out.Optimal {
				t.Fatalf("optimal length %d reached but not claimed optimal", got)
			}
			if lb := cover.SCCLowerBound(in.Host); got < lb {
				t.Fatalf("length %d below provable lower bound %d", got, lb)
			}
			if tc.snark {
				if ub := cover.SnarkSCCUpperBound(in.Host.M()); got > ub {
					t.Fatalf("snark cover length %d exceeds literature bound 4/3·m + c = %d", got, ub)
				}
			}
		})
	}
}

func TestSCCGreedyAndKCycleValidity(t *testing.T) {
	for _, tc := range sccFamilies {
		in, err := instance.Parse(tc.n, tc.spec)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.spec, err)
		}
		for _, st := range []Strategy{SCCGreedy{}, SCCKCycle{}} {
			out, err := st.Solve(context.Background(), in, Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", st.Name(), tc.spec, err)
			}
			if err := cover.VerifyGeneral(out.Covering, in.Host); err != nil {
				t.Fatalf("%s on %s: invalid cover: %v", st.Name(), tc.spec, err)
			}
			if got := out.Covering.TotalLength(); got < tc.optimal {
				t.Fatalf("%s on %s: length %d beats the proven optimum %d", st.Name(), tc.spec, got, tc.optimal)
			}
		}
	}
}

// TestSCCKCycleDropsOut: a host whose only cycle is longer than the
// restriction must make scc-kcycle (and only it) drop out.
func TestSCCKCycleDropsOut(t *testing.T) {
	// C_12 as an explicit edge list: girth 12 > KCycleMaxLen.
	spec := "edges:0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9,9-10,10-11,11-0"
	in, err := instance.Parse(12, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (SCCKCycle{}).Solve(context.Background(), in, Options{}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("scc-kcycle on C_12: err = %v, want ErrNotApplicable", err)
	}
	// The exact and greedy members still serve it: the Hamilton cycle is
	// the whole cover.
	for _, st := range []Strategy{SCCExact{}, SCCGreedy{}} {
		out, err := st.Solve(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("%s on C_12: %v", st.Name(), err)
		}
		if out.Covering.TotalLength() != 12 || out.Covering.Size() != 1 {
			t.Fatalf("%s on C_12: cover %v, want the single Hamilton cycle", st.Name(), out.Covering.Cycles)
		}
	}
}

// TestSCCCrossFamilyGuards: the two strategy sub-families must refuse
// each other's instances with ErrNotApplicable — a general host that
// happens to be K_n must never fall into the ring machinery (and pick
// up the wrong objective), and vice versa.
func TestSCCCrossFamilyGuards(t *testing.T) {
	ring := instance.AllToAll(9)
	for _, st := range []Strategy{SCCColour{}, SCCExact{}, SCCKCycle{}, SCCGreedy{}} {
		if _, err := st.Solve(context.Background(), ring, Options{}); !errors.Is(err, ErrNotApplicable) {
			t.Errorf("%s on ring instance: err = %v, want ErrNotApplicable", st.Name(), err)
		}
	}
	// K_4 as a general host is uniform λ=1 — exactly the shape that
	// would slip through a missing guard.
	k4, err := instance.Parse(4, "edges:0-1,0-2,0-3,1-2,1-3,2-3")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{ClosedForm{}, ExactSearch{}, GreedySweep{}} {
		if _, err := st.Solve(context.Background(), k4, Options{}); !errors.Is(err, ErrNotApplicable) {
			t.Errorf("%s on general K_4 host: err = %v, want ErrNotApplicable", st.Name(), err)
		}
	}
}

// TestPortfolioMatchesGeneralPipeline extends the portfolio equivalence
// pin to the general-topology families: for every spec the portfolio
// must return bit-identically the pinned winner (GeneralSCCCtx), with
// the ring members among its members. Auto, the default strategy, must
// return that winner outright.
func TestPortfolioMatchesGeneralPipeline(t *testing.T) {
	pf := NewPortfolio()
	for _, tc := range sccFamilies {
		t.Run(tc.spec, func(t *testing.T) {
			in, err := instance.Parse(tc.n, tc.spec)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			want, err := GeneralSCCCtx(context.Background(), in, Options{})
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			auto, err := Auto{}.Solve(context.Background(), in, Options{})
			if err != nil {
				t.Fatalf("auto: %v", err)
			}
			if auto.Method != want.Method || auto.Optimal != want.Optimal || auto.Strategy != want.Strategy {
				t.Fatalf("auto (%s, %s, optimal %v), pipeline (%s, %s, optimal %v)",
					auto.Method, auto.Strategy, auto.Optimal, want.Method, want.Strategy, want.Optimal)
			}
			if !equalMultisets(cycleMultiset(auto.Covering), cycleMultiset(want.Covering)) {
				t.Fatal("auto: cycle multiset differs from the pipeline")
			}
			got, err := pf.Solve(context.Background(), in, Options{})
			if err != nil {
				t.Fatalf("portfolio: %v", err)
			}
			if got.Strategy != want.Strategy {
				t.Fatalf("portfolio winner %s, pipeline winner %s", got.Strategy, want.Strategy)
			}
			if CoverCost(in, got.Covering) != CoverCost(in, want.Covering) {
				t.Fatalf("portfolio cost %d, pipeline cost %d", CoverCost(in, got.Covering), CoverCost(in, want.Covering))
			}
			if !equalMultisets(cycleMultiset(got.Covering), cycleMultiset(want.Covering)) {
				t.Fatal("portfolio: cycle multiset differs from serial pipeline")
			}
		})
	}
}

// TestSCCExactHonoursBound: with a portfolio bound at the optimum, the
// search cannot beat it, must still return its (greedy-seeded) cover,
// and must not claim optimality when cuts below the incumbent occurred.
func TestSCCExactHonoursBound(t *testing.T) {
	in, err := instance.Parse(10, "petersen")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	opts.Bound = 21 // a rival already holds the optimum
	out, err := (SCCExact{}).Solve(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cover.VerifyGeneral(out.Covering, in.Host); err != nil {
		t.Fatalf("bound-cut cover invalid: %v", err)
	}
	if out.Covering.TotalLength() < 21 {
		t.Fatalf("cover of length %d beats the proven optimum", out.Covering.TotalLength())
	}
	if out.Optimal && out.Covering.TotalLength() > 21 {
		t.Fatal("claimed optimality for a cover the bound prevented from improving")
	}
}

// TestSCCNodeLimitAnytime: a tiny node budget must still yield a valid
// cover (the greedy seed), not an error, and must not claim optimality.
func TestSCCNodeLimitAnytime(t *testing.T) {
	in, err := instance.Parse(28, "flower:7")
	if err != nil {
		t.Fatal(err)
	}
	out, err := (SCCExact{}).Solve(context.Background(), in, Options{NodeLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := cover.VerifyGeneral(out.Covering, in.Host); err != nil {
		t.Fatalf("anytime cover invalid: %v", err)
	}
	if out.Optimal {
		t.Fatal("optimality claimed under a 10-node budget")
	}
}

// BenchmarkSCCCoverCubic is the cubic-cover bench smoke gated by
// cmd/benchgate: the full fixed general pipeline on the Petersen graph.
func BenchmarkSCCCoverCubic(b *testing.B) {
	in, err := instance.Parse(10, "petersen")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := GeneralSCCCtx(ctx, in, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if out.Covering.TotalLength() != 21 {
			b.Fatalf("length %d", out.Covering.TotalLength())
		}
	}
}

// TestSCCExactCancelPrompt pins scc-exact's cancellation latency: a
// cancel 10ms in must surface within 50ms in total, whether it lands in
// the cycle enumeration (which then reports the context's error, not
// ErrNotApplicable) or in the branch-and-bound (which then returns its
// verified incumbent without an optimality claim).
func TestSCCExactCancelPrompt(t *testing.T) {
	// The race detector slows the n = 20 host's enumeration and seeding
	// from about 1ms to about 8ms, so under it the cancel comes later to
	// keep landing in the search; the 40ms allowed after it is the same.
	delay := 10 * time.Millisecond
	if raceEnabled {
		delay = 40 * time.Millisecond
	}
	cases := []struct {
		name   string
		n      int
		spec   string
		inEnum bool
	}{
		// Over MaxSCCCycles: the enumeration alone runs past the cancel.
		{"enumeration", 36, "cubic:7919", true},
		// Enumerates in about a millisecond; with no node limit to speak
		// of, the search runs until the cancel.
		{"search", 20, "cubic:7919", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := instance.Parse(tc.n, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(delay)
				cancel()
			}()
			start := time.Now()
			out, err := (SCCExact{}).Solve(ctx, in, Options{NodeLimit: 1 << 40})
			if elapsed := time.Since(start); elapsed > delay+40*time.Millisecond {
				t.Errorf("Solve returned after %v with the cancel at %v, want < %v", elapsed, delay, delay+40*time.Millisecond)
			}
			if tc.inEnum {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("cancel in the search: err = %v, want the incumbent", err)
			}
			if err := cover.VerifyGeneral(out.Covering, in.Host); err != nil {
				t.Fatalf("incumbent invalid: %v", err)
			}
			if out.Optimal {
				t.Fatal("optimality claimed by a cancelled search")
			}
		})
	}
}

// BenchmarkSCCExactNodeLimited is scc-exact alone on a random cubic
// host that spends the whole default node budget: cycle enumeration,
// incumbent seeding and 2M search nodes under a cancellable context, as
// a pool worker runs it. cmd/benchgate pins its allocs/op, which repeat
// exactly, so per-cycle or per-node allocation cannot creep back.
func BenchmarkSCCExactNodeLimited(b *testing.B) {
	in, err := instance.Parse(26, "cubic:7919")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := (SCCExact{}).Solve(ctx, in, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if out.Optimal {
			b.Fatal("search finished within the node budget: the host no longer measures a node-limited run")
		}
	}
}

// BenchmarkSCCEnumerate is scc-exact's host index and unrestricted
// cycle enumeration on random cubic hosts: n = 26 and 30 stay under
// MaxSCCCycles, n = 36 runs into it.
func BenchmarkSCCEnumerate(b *testing.B) {
	for _, n := range []int{26, 30, 36} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in, err := instance.Parse(n, "cubic:7919")
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enumerateCycles(ctx, indexHost(in.Host), n)
			}
		})
	}
}

// BenchmarkSCCPipelineCubic is the fixed general pipeline on random
// cubic hosts: n = 18 is proven, n = 26 and 30 spend scc-exact's node
// budget, and n = 36 overflows MaxSCCCycles, so scc-kcycle and
// scc-greedy serve it.
func BenchmarkSCCPipelineCubic(b *testing.B) {
	for _, n := range []int{18, 26, 30, 36} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in, err := instance.Parse(n, "cubic:7919")
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := GeneralSCCCtx(ctx, in, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
