package construct

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// The reference functions below are scc-exact's earlier, slower
// implementations, kept as oracles for the indexed enumerator and the
// mask lower bound: the enumerator asks the graph for a fresh neighbour
// list at every DFS step and canonicalises and re-masks every cycle, and
// the bound tallies uncovered degrees edge by edge.

// refCycle is one cycle as the reference enumerator records it.
type refCycle struct {
	cyc  cover.Cycle
	mask uint64
	len  int
}

// refEdges indexes the host's distinct edges in ascending (u, v) order:
// bit i of a mask is edge (us[i], vs[i]).
type refEdges struct {
	us, vs []int
}

func refIndexEdges(host *graph.Graph) refEdges {
	var e refEdges
	host.ForEachEdge(func(u, v, _ int) bool {
		e.us = append(e.us, u)
		e.vs = append(e.vs, v)
		return true
	})
	return e
}

// bitOf finds the bit of {u, v} by binary search; -1 for a non-edge.
func (e refEdges) bitOf(u, v int) int {
	if u > v {
		u, v = v, u
	}
	lo, hi := 0, len(e.us)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.us[mid] < u || (e.us[mid] == u && e.vs[mid] < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.us) && e.us[lo] == u && e.vs[lo] == v {
		return lo
	}
	return -1
}

func (e refEdges) maskOf(c cover.Cycle) uint64 {
	var m uint64
	vs := c.Vertices()
	for i := range vs {
		b := e.bitOf(vs[i], vs[(i+1)%len(vs)])
		if b < 0 {
			panic("reference: enumerated cycle uses a non-host edge")
		}
		m |= 1 << uint(b)
	}
	return m
}

// refEnumerateCycles is the reference enumerator; ok is false when the
// count exceeds MaxSCCCycles.
func refEnumerateCycles(host *graph.Graph, edges refEdges, maxLen int) ([]refCycle, bool) {
	n := host.N()
	var out []refCycle
	path := make([]int, 0, maxLen)
	onPath := make([]bool, n)
	overflow := false

	var dfs func(root, v int) bool
	dfs = func(root, v int) bool {
		for _, w := range host.Neighbors(v) {
			if w == root && len(path) >= cover.MinCycleLen && path[1] < path[len(path)-1] {
				c, err := cover.WalkCycle(path)
				if err != nil {
					panic(err)
				}
				if len(out) >= MaxSCCCycles {
					overflow = true
					return false
				}
				out = append(out, refCycle{cyc: c, mask: edges.maskOf(c), len: len(path)})
			}
			if w <= root || onPath[w] || len(path) >= maxLen {
				continue
			}
			path = append(path, w)
			onPath[w] = true
			ok := dfs(root, w)
			onPath[w] = false
			path = path[:len(path)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	for root := 0; root < n && !overflow; root++ {
		path = append(path[:0], root)
		dfs(root, root)
	}
	if overflow {
		return nil, false
	}
	return out, true
}

// refLowerBound is the reference Σ_v ⌈ucdeg(v)/2⌉, tallying each
// uncovered edge into its endpoints' degrees.
func refLowerBound(e refEdges, n int, covered uint64) int {
	ucdeg := make([]int, n)
	for b := range e.us {
		if covered&(1<<uint(b)) == 0 {
			ucdeg[e.us[b]]++
			ucdeg[e.vs[b]]++
		}
	}
	lb := 0
	for _, d := range ucdeg {
		lb += (d + 1) / 2
	}
	return lb
}

// sccRefHost is one host of the reference pins.
type sccRefHost struct {
	name string
	host *graph.Graph
}

// sccRefHosts is the reference pins' host set: every sccFamilies spec,
// prism:3…11, random cubic hosts on n = 4…30 vertices (two seeds each),
// and one n = 32 cubic host whose cycle count overflows MaxSCCCycles.
func sccRefHosts(t *testing.T) []sccRefHost {
	t.Helper()
	var hosts []sccRefHost
	add := func(n int, spec string) {
		in, err := instance.Parse(n, spec)
		if err != nil {
			t.Fatalf("parse %s (n=%d): %v", spec, n, err)
		}
		hosts = append(hosts, sccRefHost{fmt.Sprintf("%s/n=%d", spec, n), in.Host})
	}
	for _, tc := range sccFamilies {
		add(tc.n, tc.spec)
	}
	for k := 3; k <= 11; k++ {
		add(2*k, fmt.Sprintf("prism:%d", k))
	}
	for n := 4; n <= 30; n += 2 {
		add(n, "cubic:1")
		add(n, "cubic:2")
	}
	add(32, "cubic:7919")
	return hosts
}

// TestSCCEnumerateMatchesReference pins the indexed enumerator to the
// reference one: the same overflow verdict, the same cycles in the same
// order, each with the same vertex sequence, mask and length, at the
// scc-kcycle cap and at the unrestricted length n.
func TestSCCEnumerateMatchesReference(t *testing.T) {
	overflowed := false
	for _, hc := range sccRefHosts(t) {
		h := indexHost(hc.host)
		edges := refIndexEdges(hc.host)
		for _, maxLen := range []int{KCycleMaxLen, hc.host.N()} {
			want, wantOK := refEnumerateCycles(hc.host, edges, maxLen)
			got, err := enumerateCycles(context.Background(), h, maxLen)
			if err != nil && err != errCycleCap {
				t.Fatalf("%s maxLen=%d: unexpected error %v", hc.name, maxLen, err)
			}
			if gotOK := err == nil; gotOK != wantOK {
				t.Fatalf("%s maxLen=%d: ok = %v, reference %v", hc.name, maxLen, gotOK, wantOK)
			}
			if !wantOK {
				overflowed = true
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s maxLen=%d: %d cycles, reference %d", hc.name, maxLen, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if !slices.Equal(g.verts, w.cyc.Vertices()) || g.mask != w.mask || len(g.verts) != w.len {
					t.Fatalf("%s maxLen=%d: cycle %d = %v mask %#x, reference %v mask %#x",
						hc.name, maxLen, i, g.verts, g.mask, w.cyc.Vertices(), w.mask)
				}
			}
		}
	}
	if !overflowed {
		t.Fatal("no host overflowed MaxSCCCycles: the overflow verdict went unchecked")
	}
}

// TestSCCLowerBoundMatchesReference pins the incident-mask bound to the
// reference degree tally on 1000 seeded random covered-edge masks per
// host, plus the empty and full masks.
func TestSCCLowerBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, hc := range sccRefHosts(t) {
		h := indexHost(hc.host)
		edges := refIndexEdges(hc.host)
		s := &sccSearch{inc: h.inc}
		full := fullMask(h.m)
		masks := []uint64{0, full}
		for i := 0; i < 1000; i++ {
			// Vary the density so both nearly-empty and nearly-full
			// states are drawn.
			mk := rng.Uint64()
			for j := rng.Intn(3); j > 0; j-- {
				if rng.Intn(2) == 0 {
					mk &= rng.Uint64()
				} else {
					mk |= rng.Uint64()
				}
			}
			masks = append(masks, mk&full)
		}
		for _, mk := range masks {
			if got, want := s.lowerBound(mk), refLowerBound(edges, h.n, mk); got != want {
				t.Fatalf("%s: lowerBound(%#x) = %d, reference %d (%d of %d edges covered)",
					hc.name, mk, got, want, bits.OnesCount64(mk), h.m)
			}
		}
	}
}

// sccNodeLimitedGolden pins scc-exact's anytime answers at a 200 000-node
// budget, recorded from the search built on the reference functions
// above: the five cubic hosts stop at the node limit, and flower:7 is
// proven within it.
var sccNodeLimitedGolden = []struct {
	n       int
	spec    string
	length  int
	optimal bool
	cycles  []string
}{
	{20, "cubic:7919", 42, false, []string{"0,4,6", "0,4,9,16", "0,6,5,18,17,13,15,10,19,8,2,3,14,16", "1,7,5,18,12,11", "1,7,9,16,14,2,3,15,10,11,12,13,17,19,8"}},
	{24, "cubic:7919", 50, false, []string{"0,12,5,20", "0,7,3,13,9,12", "1,8,15,4,18,17,11,22", "1,8,2,16", "2,15,4,21,13,9,23,5,20,10,14,16", "3,7,6,19", "6,19,22,11,10,14,17,18,21,13,9,23"}},
	{26, "cubic:7919", 57, false, []string{"0,3,4,6,20,22,5,12,17,8,14,9,23,16,19,11", "0,3,5,12,10,21", "0,3,5,22,2,11", "1,10,21,24,15,25", "1,15,24,9,14,23,16,7,18,13,25", "2,13,18,4,6,17,8,7,16,19,20,22"}},
	{28, "cubic:7919", 63, false, []string{"0,12,23,11,7,26", "0,12,27", "1,10,9,20,17,24", "1,6,24", "2,14,19,8,5,15,6,24,17,16,4,11,23,3,18,21,13,9,10,25", "2,14,22", "2,22,18,3,25", "3,18,21,5,15,27,12,23", "4,7,26,8,19,20,9,13,16"}},
	{30, "cubic:7919", 65, false, []string{"0,19,22,6,8,27,29", "0,19,26,21,25", "0,25,2,14,10,9,27,8,20,17,24,18,4,6,22,13,12,15,29", "1,23,21,26,3,11,28", "1,7,16,5,23", "1,7,9,10,20,8,6,22,13,28", "2,3,11,12,15,24,17,14", "4,5,16,18"}},
	{28, "flower:7", 56, true, []string{"0,7,13,6,20,21", "0,7,8,1,15,14", "1,8,9,2,23,22", "14,15,16,17,18,19,20,21,22,23,24,25,26,27", "2,9,10,3,17,16", "3,10,11,4,25,24", "4,11,12,5,19,18", "5,12,13,6,27,26"}},
}

// TestSCCExactNodeLimitedGolden: node-limited answers depend on the
// exact order children are charged, pruned and visited, so they pin
// that order where the optimal-length tests cannot.
func TestSCCExactNodeLimitedGolden(t *testing.T) {
	for _, g := range sccNodeLimitedGolden {
		t.Run(fmt.Sprintf("%s/n=%d", g.spec, g.n), func(t *testing.T) {
			in, err := instance.Parse(g.n, g.spec)
			if err != nil {
				t.Fatal(err)
			}
			out, err := (SCCExact{}).Solve(context.Background(), in, Options{NodeLimit: 200_000})
			if err != nil {
				t.Fatal(err)
			}
			if err := cover.VerifyGeneral(out.Covering, in.Host); err != nil {
				t.Fatalf("invalid cover: %v", err)
			}
			if got := out.Covering.TotalLength(); got != g.length || out.Optimal != g.optimal {
				t.Fatalf("length %d optimal %v, golden %d optimal %v", got, out.Optimal, g.length, g.optimal)
			}
			if got := cycleMultiset(out.Covering); !equalMultisets(got, g.cycles) {
				t.Fatalf("cycles %q, golden %q", got, g.cycles)
			}
		})
	}
}

// sccProofNodes is the exact node count scc-exact needs to prove each
// host's optimum, recorded alongside sccNodeLimitedGolden.
var sccProofNodes = []struct {
	n     int
	spec  string
	nodes int64
}{
	{10, "petersen", 7281},
	{20, "flower:5", 6353},
	{28, "flower:7", 110978},
	{16, "cubic:7919", 2008},
	{18, "cubic:7919", 27516},
}

// TestSCCExactProofNodeCounts pins how nodes are charged: each proof
// completes with exactly its recorded node budget and not with one node
// less.
func TestSCCExactProofNodeCounts(t *testing.T) {
	for _, p := range sccProofNodes {
		in, err := instance.Parse(p.n, p.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int64{p.nodes - 1, p.nodes} {
			out, err := (SCCExact{}).Solve(context.Background(), in, Options{NodeLimit: limit})
			if err != nil {
				t.Fatalf("%s: %v", p.spec, err)
			}
			if want := limit == p.nodes; out.Optimal != want {
				t.Fatalf("%s/n=%d at NodeLimit %d: optimal = %v, want %v (proof takes %d nodes)",
					p.spec, p.n, limit, out.Optimal, want, p.nodes)
			}
		}
	}
}
