package construct

import (
	"context"
	"fmt"
	"math/rand/v2"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// SCCColour covers a simple cubic host from a proper 3-edge-colouring
// with classes 0, 1 and 2: the circuits of the 2-factors 0∪1 and 0∪2
// cover every edge, and each factor spends exactly n slots, so the
// cover's length is 2n — the vertex-visit bound SCCLowerBound, hence
// optimal with no cycle enumeration and no search. Snarks have no such
// colouring; they, non-cubic hosts, multigraphs and any host the step
// budget cannot colour get ErrNotApplicable and are left to scc-exact
// and the members after it.
type SCCColour struct{}

// Name implements Strategy.
func (SCCColour) Name() string { return "scc-colour" }

// Solve implements Strategy.
func (SCCColour) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if !in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: scc-colour needs a general-topology instance, got %q", ErrNotApplicable, in.Name)
	}
	host := in.Host
	if !host.IsCubic() {
		return Outcome{}, fmt.Errorf("%w: scc-colour needs a cubic host, %q is not", ErrNotApplicable, in.Name)
	}
	if host.M() != host.DistinctEdges() {
		return Outcome{}, fmt.Errorf("%w: scc-colour needs a simple host, %q has parallel edges", ErrNotApplicable, in.Name)
	}
	c := newEdgeColouring(host)
	ok, err := c.colour(ctx)
	if err != nil {
		return Outcome{}, err
	}
	if !ok {
		return Outcome{}, fmt.Errorf("%w: scc-colour found no colouring of %q within budget (%d steps)", ErrNotApplicable, in.Name, c.budget)
	}
	cv, err := c.cover()
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Covering: cv,
		Method:   MethodSCC,
		Optimal:  cv.TotalLength() == cover.SCCLowerBound(host),
		Strategy: "scc-colour",
	}, nil
}

// sccColourStepsPerEdge sizes the colouring's step budget: m times it.
// A step is one popped edge. Random cubic hosts with n ≤ 40 need a
// median 1.2·m steps and at most 11·m (EXPERIMENTS.md §K); at n ≥ 200
// they need 1.02–1.3·m. A host still uncoloured at 16·m is most likely
// a snark, but the refusal claims only that the budget ran out.
const sccColourStepsPerEdge = 16

// edgeColouring is greedy 3-edge-colouring with Kempe-chain repair on a
// simple cubic host. Edges are numbered in ForEachEdge order; at[v][c]
// is the edge holding colour c at v, or -1 when c is free there.
type edgeColouring struct {
	n      int
	ends   [][2]int32
	at     [][3]int32
	col    []int8 // edge → colour, or -1
	stack  []int32
	chain  []int32
	rng    *rand.Rand
	steps  int
	budget int
}

func newEdgeColouring(host *graph.Graph) *edgeColouring {
	n, m := host.N(), host.M()
	c := &edgeColouring{
		n:      n,
		ends:   make([][2]int32, 0, m),
		at:     make([][3]int32, n),
		col:    make([]int8, m),
		stack:  make([]int32, m),
		chain:  make([]int32, 0, n),
		rng:    rand.New(rand.NewPCG(0x5cc0c010, 0x3ed9e)),
		budget: sccColourStepsPerEdge * m,
	}
	host.ForEachEdge(func(u, v, _ int) bool {
		c.ends = append(c.ends, [2]int32{int32(u), int32(v)})
		return true
	})
	for v := range c.at {
		c.at[v] = [3]int32{-1, -1, -1}
	}
	for e := range c.col {
		c.col[e] = -1
		c.stack[e] = int32(m - 1 - e) // pops in edge order
	}
	return c
}

// other returns the endpoint of edge e that is not x.
func (c *edgeColouring) other(e int32, x int) int {
	return int(c.ends[e][0]+c.ends[e][1]) - x
}

func (c *edgeColouring) paint(e int32, k int8) {
	c.col[e] = k
	c.at[c.ends[e][0]][k] = e
	c.at[c.ends[e][1]][k] = e
}

func (c *edgeColouring) unpaint(e int32) {
	k := c.col[e]
	c.col[e] = -1
	c.at[c.ends[e][0]][k] = -1
	c.at[c.ends[e][1]][k] = -1
}

// colour pops uncoloured edges until none is left (true) or the step
// budget runs out (false). An edge uv takes the lowest colour free at
// both ends. Otherwise a is free at u and b at v: if the a/b chain from
// v does not reach u, swapping its colours frees a at v. If it does,
// one coloured edge at u or v, picked by the seeded RNG, is uncoloured
// and uv is retried with it. ctx is polled every 1024 steps.
func (c *edgeColouring) colour(ctx context.Context) (bool, error) {
	done := ctx.Done()
	for len(c.stack) > 0 {
		if c.steps == c.budget {
			return false, nil
		}
		if c.steps&1023 == 0 {
			select {
			case <-done: // nil for a background context: never fires
				return false, ctx.Err()
			default:
			}
		}
		c.steps++
		e := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		u, v := int(c.ends[e][0]), int(c.ends[e][1])
		a, b := int8(-1), int8(-1)
		for k := int8(0); k < 3; k++ {
			fu, fv := c.at[u][k] < 0, c.at[v][k] < 0
			if fu && fv {
				a, b = k, k
				break
			}
			if fu && a < 0 {
				a = k
			}
			if fv && b < 0 {
				b = k
			}
		}
		if a == b {
			c.paint(e, a)
			continue
		}
		if c.kempe(v, a, b) != u {
			c.swapChain(v, a, b)
			c.paint(e, a)
			continue
		}
		var cand [4]int32
		k := 0
		for _, x := range [2]int{u, v} {
			for _, f := range c.at[x] {
				if f >= 0 {
					cand[k] = f
					k++
				}
			}
		}
		f := cand[c.rng.IntN(k)]
		c.unpaint(f)
		c.stack = append(c.stack, f, e)
	}
	return true, nil
}

// kempe records in c.chain the a/b-alternating path that leaves v on
// its a-edge and returns the vertex where it ends.
func (c *edgeColouring) kempe(v int, a, b int8) int {
	c.chain = c.chain[:0]
	x, k := v, a
	for f := c.at[x][k]; f >= 0; f = c.at[x][k] {
		c.chain = append(c.chain, f)
		x = c.other(f, x)
		k = a + b - k
	}
	return x
}

// swapChain exchanges colours a and b along the chain kempe recorded
// from v, at every edge and every vertex on it.
func (c *edgeColouring) swapChain(v int, a, b int8) {
	x := v
	c.at[x][a], c.at[x][b] = c.at[x][b], c.at[x][a]
	for _, f := range c.chain {
		c.col[f] = a + b - c.col[f]
		x = c.other(f, x)
		c.at[x][a], c.at[x][b] = c.at[x][b], c.at[x][a]
	}
}

// cover returns the circuits of the 2-factor 0∪1, then of 0∪2, each
// walked from its smallest vertex.
func (c *edgeColouring) cover() (*cover.Covering, error) {
	cv := cover.NewGeneralCovering(c.n)
	seen := make([]bool, c.n)
	walk := make([]int, 0, c.n)
	for _, x := range [2]int8{1, 2} {
		clear(seen)
		for s := range seen {
			walk = walk[:0]
			for v, k := s, int8(0); !seen[v]; k = x - k {
				seen[v] = true
				walk = append(walk, v)
				v = c.other(c.at[v][k], v)
			}
			if len(walk) == 0 {
				continue
			}
			cyc, err := cover.WalkCycle(walk)
			if err != nil {
				return nil, err
			}
			cv.Add(cyc)
		}
	}
	return cv, nil
}
