package construct

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// colourableOracle reports whether a connected host has a proper
// 3-edge-colouring, by plain backtracking over its edges in BFS order
// from vertex 0 with one used-colour bitmask per vertex. Test-only; it
// shares no code with scc-colour.
func colourableOracle(host *graph.Graph) bool {
	n := host.N()
	var edges []graph.Edge
	queued, done := make([]bool, n), make([]bool, n)
	queue := []int{0}
	queued[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range host.Neighbors(v) {
			if !done[w] {
				edges = append(edges, graph.NewEdge(v, w))
			}
			if !queued[w] {
				queued[w] = true
				queue = append(queue, w)
			}
		}
		done[v] = true
	}
	used := make([]uint8, n)
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(edges) {
			return true
		}
		e := edges[i]
		for c := uint8(1); c < 8; c <<= 1 {
			if used[e.U]&c != 0 || used[e.V]&c != 0 {
				continue
			}
			used[e.U] |= c
			used[e.V] |= c
			if try(i + 1) {
				return true
			}
			used[e.U] &^= c
			used[e.V] &^= c
		}
		return false
	}
	return try(0)
}

// sccColourHosts is the bound table: prisms, K_4 and five random cubic
// seeds at every even n from 4 to 120 and at n = 1024.
func sccColourHosts() []sccSpec {
	hosts := []sccSpec{{4, "edges:0-1,0-2,0-3,1-2,1-3,2-3"}}
	for k := 3; k <= 60; k++ {
		hosts = append(hosts, sccSpec{2 * k, fmt.Sprintf("prism:%d", k)})
	}
	for _, n := range append(evenRange(4, 120), 1024) {
		for seed := 1; seed <= 5; seed++ {
			hosts = append(hosts, sccSpec{n, fmt.Sprintf("cubic:%d", seed)})
		}
	}
	return hosts
}

type sccSpec struct {
	n    int
	spec string
}

func evenRange(lo, hi int) []int {
	var out []int
	for n := lo; n <= hi; n += 2 {
		out = append(out, n)
	}
	return out
}

func TestSCCColourMeetsBound(t *testing.T) {
	ctx := context.Background()
	for _, h := range sccColourHosts() {
		in, err := instance.Parse(h.n, h.spec)
		if err != nil {
			t.Fatalf("%s (n=%d): parse: %v", h.spec, h.n, err)
		}
		out, err := (SCCColour{}).Solve(ctx, in, Options{})
		if err != nil {
			t.Fatalf("%s (n=%d): %v", h.spec, h.n, err)
		}
		if err := cover.VerifyGeneral(out.Covering, in.Host); err != nil {
			t.Fatalf("%s (n=%d): invalid cover: %v", h.spec, h.n, err)
		}
		if got, lb := out.Covering.TotalLength(), cover.SCCLowerBound(in.Host); got != lb {
			t.Fatalf("%s (n=%d): length %d, want the lower bound %d", h.spec, h.n, got, lb)
		}
		if !out.Optimal || out.Strategy != "scc-colour" || out.Method != MethodSCC {
			t.Fatalf("%s (n=%d): optimal=%v strategy=%q method=%q", h.spec, h.n, out.Optimal, out.Strategy, out.Method)
		}
		again, err := (SCCColour{}).Solve(ctx, in, Options{})
		if err != nil || !reflect.DeepEqual(again.Covering.Cycles, out.Covering.Cycles) {
			t.Fatalf("%s (n=%d): second run differs (err %v)", h.spec, h.n, err)
		}
	}
}

// TestSCCColourMatchesOracle: on every small random cubic host and on
// the snarks, scc-colour succeeds exactly when the host is
// 3-edge-colourable.
func TestSCCColourMatchesOracle(t *testing.T) {
	var hosts []sccSpec
	for _, n := range evenRange(4, 16) {
		for seed := 0; seed < 50; seed++ {
			hosts = append(hosts, sccSpec{n, fmt.Sprintf("cubic:%d", seed)})
		}
	}
	hosts = append(hosts, sccSpec{10, "petersen"}, sccSpec{18, "blanusa:1"}, sccSpec{18, "blanusa:2"})
	for k := 3; k <= 9; k += 2 {
		hosts = append(hosts, sccSpec{4 * k, fmt.Sprintf("flower:%d", k)})
	}
	refused := 0
	for _, h := range hosts {
		in, err := instance.Parse(h.n, h.spec)
		if err != nil {
			t.Fatalf("%s (n=%d): parse: %v", h.spec, h.n, err)
		}
		_, err = (SCCColour{}).Solve(context.Background(), in, Options{})
		if err != nil && !errors.Is(err, ErrNotApplicable) {
			t.Fatalf("%s (n=%d): %v", h.spec, h.n, err)
		}
		if got, want := err == nil, colourableOracle(in.Host); got != want {
			t.Fatalf("%s (n=%d): scc-colour succeeded=%v, oracle colourable=%v", h.spec, h.n, got, want)
		}
		if err != nil {
			refused++
		}
	}
	if refused < 7 {
		t.Fatalf("only %d hosts refused; the snark rows alone are 7", refused)
	}
}

// TestSCCColourRefusals: snarks, non-cubic hosts and multigraphs get
// ErrNotApplicable (ring instances: TestSCCCrossFamilyGuards).
func TestSCCColourRefusals(t *testing.T) {
	hosts := []sccSpec{
		{10, "petersen"}, {18, "blanusa:1"}, {18, "blanusa:2"},
		{12, "edges:0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9,9-10,10-11,11-0"}, // C_12
		{3, "adj:1,2;0,2;0,1"},               // triangle
		{5, "edges:0-1,1-2,2-0,0-3,3-4,4-0"}, // bowtie: vertex 0 has degree 4
		{4, "edges:0-1,0-1,2-3,2-3,0-2,1-3"}, // cubic, but two doubled edges
	}
	for k := 3; k <= 21; k += 2 {
		hosts = append(hosts, sccSpec{4 * k, fmt.Sprintf("flower:%d", k)})
	}
	for _, h := range hosts {
		in, err := instance.Parse(h.n, h.spec)
		if err != nil {
			t.Fatalf("%s (n=%d): parse: %v", h.spec, h.n, err)
		}
		_, err = (SCCColour{}).Solve(context.Background(), in, Options{})
		if !errors.Is(err, ErrNotApplicable) {
			t.Fatalf("%s (n=%d): err = %v, want ErrNotApplicable", h.spec, h.n, err)
		}
		if in.Host.IsCubic() && in.Host.M() == in.Host.DistinctEdges() && !strings.Contains(err.Error(), "within budget") {
			t.Fatalf("%s: refusal %q does not say the budget ran out", h.spec, err)
		}
	}
}

// TestSCCColourStepBudget: a snark's refusal spends exactly the step
// budget, sccColourStepsPerEdge per edge.
func TestSCCColourStepBudget(t *testing.T) {
	in, err := instance.Parse(84, "flower:21")
	if err != nil {
		t.Fatal(err)
	}
	c := newEdgeColouring(in.Host)
	ok, err := c.colour(context.Background())
	if ok || err != nil {
		t.Fatalf("flower:21 coloured=%v err=%v, want a refusal", ok, err)
	}
	if want := sccColourStepsPerEdge * in.Host.M(); c.steps != want {
		t.Fatalf("refusal took %d steps, want the budget %d", c.steps, want)
	}
}

func TestSCCColourCancelled(t *testing.T) {
	in, err := instance.Parse(1024, "cubic:7919")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (SCCColour{}).Solve(ctx, in, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// BenchmarkSCCColour is scc-colour alone: colourings of random cubic
// hosts at three sizes, and the budget-exhausting refusal of a snark.
// cmd/benchgate pins its allocs/op.
func BenchmarkSCCColour(b *testing.B) {
	for _, h := range []sccSpec{{26, "cubic:7919"}, {120, "cubic:7919"}, {1024, "cubic:7919"}, {84, "flower:21"}} {
		b.Run(fmt.Sprintf("%s/n=%d", h.spec, h.n), func(b *testing.B) {
			in, err := instance.Parse(h.n, h.spec)
			if err != nil {
				b.Fatal(err)
			}
			refuse := strings.HasPrefix(h.spec, "flower:")
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := (SCCColour{}).Solve(ctx, in, Options{})
				if refuse != errors.Is(err, ErrNotApplicable) || (!refuse && err != nil) {
					b.Fatalf("err = %v", err)
				}
			}
		})
	}
}
