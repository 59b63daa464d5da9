package construct

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// cycleMultiset returns the covering's cycles as a sorted multiset of
// canonical keys, for exact (order-independent) comparison.
func cycleMultiset(cv *cover.Covering) []string {
	keys := make([]string, 0, cv.Size())
	for _, c := range cv.Cycles {
		keys = append(keys, c.Key())
	}
	sort.Strings(keys)
	return keys
}

func equalMultisets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fixedPipeline reproduces the pre-registry construction dispatch: the
// paper's machinery for uniform λK_n demands, greedy otherwise. The
// portfolio and Auto are pinned against it.
func fixedPipeline(t *testing.T, in instance.Instance) Result {
	t.Helper()
	if lam, ok := UniformLambda(in.Demand); ok {
		var res Result
		var err error
		if lam == 1 {
			res, err = AllToAllCtx(context.Background(), in.N())
		} else {
			res, err = LambdaCtx(context.Background(), in.N(), lam)
		}
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		return res
	}
	return Result{Covering: mustGreedy(t, ring.MustNew(in.N()), in.Demand), Method: MethodGreedy}
}

// TestUniformLambda pins the λ-class test: λK_n answers (λ, true), and
// anything else — including a demand whose pair and edge counts match
// λK_n but whose multiplicities differ — answers (0, false).
func TestUniformLambda(t *testing.T) {
	for n := 2; n <= 9; n++ {
		for k := 1; k <= 3; k++ {
			if lam, ok := UniformLambda(instance.Lambda(n, k).Demand); lam != k || !ok {
				t.Errorf("Lambda(%d, %d): got (%d, %v), want (%d, true)", n, k, lam, ok, k)
			}
		}
	}
	// Six pairs and twelve edges, so λ = 2 by the counts, but (0,1)
	// carries 1 and (2,3) carries 3.
	skewed := graph.New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			k := 2
			switch {
			case u == 0 && v == 1:
				k = 1
			case u == 2 && v == 3:
				k = 3
			}
			skewed.AddEdgeMulti(u, v, k)
		}
	}
	for name, g := range map[string]*graph.Graph{
		"nil":       nil,
		"K1":        graph.New(1),
		"hub":       instance.Hub(6, 2).Demand,
		"neighbors": instance.Neighbors(6).Demand,
		"skewed":    skewed,
	} {
		if lam, ok := UniformLambda(g); lam != 0 || ok {
			t.Errorf("%s: got (%d, %v), want (0, false)", name, lam, ok)
		}
	}
}

// TestPortfolioMatchesPipeline is the equivalence pin of the strategy
// refactor: for every demand-spec family × n ∈ 3..16, the portfolio's
// deterministic winner must reproduce the fixed pipeline's covering
// exactly — same cost AND same cycle multiset. This holds because the
// closed forms are registry entry 0 and provably never lose on cost
// where they apply (they are optimal for K_n, and the λ-composition is
// at worst tied by greedy), so the lowest-cost-then-lowest-index rule
// always selects them; on demands they do not address, greedy is the
// only applicable member. Auto, the default strategy, must return the
// fixed pipeline's covering, Method and Optimal outright.
func TestPortfolioMatchesPipeline(t *testing.T) {
	specs := func(n int) []string {
		return []string{
			"alltoall",
			"lambda:2",
			"lambda:3",
			"hub:0",
			fmt.Sprintf("hub:%d", n-1),
			"neighbors",
			"random:0.3:5",
			"random:0.8:11",
			"random:0:1", // empty demand: greedy returns the empty covering
			"random:1:2", // clamp-saturated density: full K_n
		}
	}
	pf := NewPortfolio()
	for n := 3; n <= 16; n++ {
		for _, spec := range specs(n) {
			t.Run(fmt.Sprintf("n=%d/%s", n, spec), func(t *testing.T) {
				in, err := instance.Parse(n, spec)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				ref := fixedPipeline(t, in)
				want := ref.Covering
				auto, err := Auto{}.Solve(context.Background(), in, Options{})
				if err != nil {
					t.Fatalf("auto: %v", err)
				}
				if auto.Method != ref.Method || auto.Optimal != ref.Optimal {
					t.Fatalf("auto (method %s, optimal %v), pipeline (method %s, optimal %v)",
						auto.Method, auto.Optimal, ref.Method, ref.Optimal)
				}
				if !equalMultisets(cycleMultiset(auto.Covering), cycleMultiset(want)) {
					t.Fatalf("auto (strategy %s): cycle multiset differs from pipeline", auto.Strategy)
				}
				got, err := pf.Solve(context.Background(), in, Options{})
				if err != nil {
					t.Fatalf("portfolio: %v", err)
				}
				if got.Covering.Size() != want.Size() {
					t.Fatalf("portfolio cost %d (winner %s), pipeline cost %d",
						got.Covering.Size(), got.Strategy, want.Size())
				}
				if !equalMultisets(cycleMultiset(got.Covering), cycleMultiset(want)) {
					t.Fatalf("portfolio winner %s: cycle multiset differs from pipeline", got.Strategy)
				}
				if err := cover.Verify(got.Covering, in.Demand); err != nil {
					t.Fatalf("portfolio covering invalid: %v", err)
				}
			})
		}
	}
}

// TestPortfolioDeterministic re-races a few instances and requires the
// same winner and multiset every time: scheduling must not leak into the
// result.
func TestPortfolioDeterministic(t *testing.T) {
	pf := NewPortfolio()
	for _, spec := range []string{"alltoall", "hub:0", "lambda:2"} {
		in, err := instance.Parse(12, spec)
		if err != nil {
			t.Fatal(err)
		}
		first, err := pf.Solve(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		base := cycleMultiset(first.Covering)
		for i := 0; i < 4; i++ {
			out, err := pf.Solve(context.Background(), in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if out.Strategy != first.Strategy {
				t.Fatalf("%s run %d: winner %s, first run %s", spec, i, out.Strategy, first.Strategy)
			}
			if !equalMultisets(cycleMultiset(out.Covering), base) {
				t.Fatalf("%s run %d: multiset changed", spec, i)
			}
		}
	}
}

// TestStrategyRegistry pins the registry names and order — both are API
// (the portfolio tie-break depends on the order). RegisterStrategy
// extras (other tests in this package add some) may only ever appear
// after the pinned prefix, in sorted name order.
func TestStrategyRegistry(t *testing.T) {
	want := []string{"closed-form", "exact", "greedy", "scc-colour", "scc-exact", "scc-kcycle", "scc-greedy", "portfolio"}
	got := Strategies()
	if len(got) < len(want) {
		t.Fatalf("Strategies() = %v, want prefix %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Strategies()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	extras := got[len(want):]
	if !sort.StringsAreSorted(extras) {
		t.Fatalf("registered extras %v are not in sorted name order", extras)
	}
	for _, name := range extras {
		if st, ok := LookupStrategy(name); !ok || st.Name() != name {
			t.Fatalf("registered extra %q does not resolve via LookupStrategy", name)
		}
	}
	for _, name := range want {
		st, ok := LookupStrategy(name)
		if !ok {
			t.Fatalf("LookupStrategy(%q) not found", name)
		}
		if st.Name() != name {
			t.Fatalf("LookupStrategy(%q).Name() = %q", name, st.Name())
		}
	}
	if _, ok := LookupStrategy("simulated-annealing"); ok {
		t.Fatal("LookupStrategy accepted an unknown name")
	}
}

// TestStrategyNotApplicable: specialised strategies must refuse demand
// classes they do not address, with ErrNotApplicable so the portfolio
// can drop them.
func TestStrategyNotApplicable(t *testing.T) {
	hub := instance.Hub(9, 0)
	for _, st := range []Strategy{ClosedForm{}, ExactSearch{}} {
		_, err := st.Solve(context.Background(), hub, Options{})
		if !errors.Is(err, ErrNotApplicable) {
			t.Errorf("%s on hub demand: err = %v, want ErrNotApplicable", st.Name(), err)
		}
	}
	// The min-conflicts member is gone: its name resolves to nothing.
	if _, ok := LookupStrategy("repair"); ok {
		t.Error(`LookupStrategy("repair") resolved a strategy`)
	}
}

// TestExactCtxCancelPrompt pins the cancellation latency contract: a
// mid-search cancel must surface within 50ms (the context is polled at
// every branch boundary), with Complete=false — never a fabricated
// infeasibility proof. The search runs on the calling goroutine, one
// worker, as the subtest name says.
func TestExactCtxCancelPrompt(t *testing.T) {
	t.Run("parallelism=1", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		// ρ(16)−1 with unbounded cycle length: a hard infeasibility
		// search that would otherwise burn the whole node budget.
		out := ExactCtx(ctx, 16, ExactOptions{Budget: cover.Rho(16) - 1, NodeLimit: 1 << 40})
		if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
			t.Errorf("cancel took %v to surface, want < 50ms", elapsed)
		}
		if out.Complete {
			t.Error("cancelled search claims Complete — a false infeasibility proof")
		}
		if out.Covering != nil {
			t.Error("cancelled infeasible search returned a covering")
		}
	})
}

// TestExactCtxDeadline: a deadline behaves like a cancel, and an
// uncancelled search on the same instance still completes (the ctx path
// adds no spurious interruptions).
func TestExactCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	out := ExactCtx(ctx, 16, ExactOptions{Budget: cover.Rho(16) - 1, NodeLimit: 1 << 40})
	if out.Complete {
		t.Error("deadline-expired search claims Complete")
	}

	clean := ExactCtx(context.Background(), 9, ExactOptions{Budget: cover.Rho(9), MaxLen: 4})
	if clean.Covering == nil {
		t.Fatal("background-context search found no covering at ρ(9)")
	}
	if err := cover.VerifyOptimal(clean.Covering); err != nil {
		t.Fatal(err)
	}
}

// TestPortfolioParentCancel: cancelling the parent context aborts the
// whole portfolio with the context's error.
func TestPortfolioParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewPortfolio().Solve(ctx, instance.AllToAll(14), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPortfolioBoundPruning: a portfolio of exact-after-greedy on a
// demand where greedy finishes first must still return the exact
// optimum when it is strictly better, and the bound must never corrupt
// the winner. (Custom member order — greedy first — exercises the
// bound-feeding path: greedy's size caps the exact search's budget.)
func TestPortfolioBoundPruning(t *testing.T) {
	in := instance.AllToAll(9)
	pf := NewPortfolio(GreedySweep{}, ExactSearch{})
	out, err := pf.Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	greedy := mustGreedy(t, ring.MustNew(9), in.Demand)
	if out.Covering.Size() > greedy.Size() {
		t.Fatalf("portfolio %d cycles, worse than its own greedy member's %d", out.Covering.Size(), greedy.Size())
	}
	if out.Covering.Size() == cover.Rho(9) && out.Strategy != "exact" && greedy.Size() != cover.Rho(9) {
		t.Fatalf("optimal size reached but winner is %s", out.Strategy)
	}
	if err := cover.Verify(out.Covering, in.Demand); err != nil {
		t.Fatal(err)
	}
}

// countingStrategy counts its Solve calls and refuses every instance.
type countingStrategy struct{ calls *int }

func (countingStrategy) Name() string { return "counting" }
func (c countingStrategy) Solve(context.Context, instance.Instance, Options) (Outcome, error) {
	*c.calls++
	return Outcome{}, fmt.Errorf("%w: counts calls only", ErrNotApplicable)
}

// TestPortfolioStopsAfterOptimal: a member placed after a provably
// optimal one is never called, since it could at best tie.
func TestPortfolioStopsAfterOptimal(t *testing.T) {
	calls := 0
	out, err := NewPortfolio(ClosedForm{}, countingStrategy{&calls}).Solve(context.Background(), instance.AllToAll(13), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "closed-form" || !out.Optimal {
		t.Fatalf("winner %s (optimal %v), want the optimal closed form", out.Strategy, out.Optimal)
	}
	if calls != 0 {
		t.Fatalf("member after an optimal one called %d times, want 0", calls)
	}
}

// recordingStrategy records the bound it is handed and refuses.
type recordingStrategy struct{ bounds *[]int }

func (recordingStrategy) Name() string { return "recording" }
func (r recordingStrategy) Solve(_ context.Context, _ instance.Instance, opts Options) (Outcome, error) {
	*r.bounds = append(*r.bounds, opts.Bound)
	return Outcome{}, fmt.Errorf("%w: records bounds only", ErrNotApplicable)
}

// doubledGreedy answers with every greedy cycle twice: a valid covering
// at twice greedy's cost.
type doubledGreedy struct{}

func (doubledGreedy) Name() string { return "doubled-greedy" }
func (doubledGreedy) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	out, err := GreedySweep{}.Solve(ctx, in, opts)
	if err != nil {
		return Outcome{}, err
	}
	cv := cover.NewCovering(out.Covering.Ring)
	cv.Add(out.Covering.Cycles...)
	cv.Add(out.Covering.Cycles...)
	return Outcome{Covering: cv, Method: out.Method, Strategy: "doubled-greedy"}, nil
}

// TestPortfolioFeedsBestCostAsBound: each member's Options.Bound is the
// cheapest cost an earlier member achieved, and 0 before any answered —
// whatever bound the caller passed in.
func TestPortfolioFeedsBestCostAsBound(t *testing.T) {
	in := instance.Hub(12, 0)
	var bounds []int
	rec := recordingStrategy{&bounds}
	out, err := NewPortfolio(rec, doubledGreedy{}, rec, GreedySweep{}, rec).Solve(context.Background(), in, Options{Bound: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := mustGreedy(t, ring.MustNew(12), in.Demand).Size()
	if out.Strategy != "greedy" || out.Covering.Size() != g {
		t.Fatalf("winner %s with %d cycles, want greedy with %d", out.Strategy, out.Covering.Size(), g)
	}
	if want := []int{0, 2 * g, g}; fmt.Sprint(bounds) != fmt.Sprint(want) {
		t.Fatalf("bounds seen %v, want %v", bounds, want)
	}
}

// cancellingStrategy cancels the portfolio's context and fails with its
// error, as a member interrupted by a deadline would.
type cancellingStrategy struct{ cancel context.CancelFunc }

func (cancellingStrategy) Name() string { return "cancelling" }
func (c cancellingStrategy) Solve(ctx context.Context, _ instance.Instance, _ Options) (Outcome, error) {
	c.cancel()
	return Outcome{}, ctx.Err()
}

// TestPortfolioCancelKeepsBestSoFar: when ctx fires mid-loop, the
// portfolio calls no further member and returns the best covering found
// so far, or ctx's error if no member has answered.
func TestPortfolioCancelKeepsBestSoFar(t *testing.T) {
	in := instance.Hub(12, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	out, err := NewPortfolio(GreedySweep{}, cancellingStrategy{cancel}, countingStrategy{&calls}).Solve(ctx, in, Options{})
	if err != nil || out.Strategy != "greedy" {
		t.Fatalf("got (%s, %v), want greedy's covering", out.Strategy, err)
	}
	if calls != 0 {
		t.Fatalf("member after the cancel called %d times, want 0", calls)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	if _, err := NewPortfolio(cancellingStrategy{cancel}, GreedySweep{}).Solve(ctx, in, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
