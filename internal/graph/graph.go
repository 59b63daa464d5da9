// Package graph provides the undirected graph substrate used to model
// logical (virtual) demand graphs, to carry the host graphs of the
// general-topology instances, and to verify coverings.
//
// The paper models demands as an undirected logical graph I on the ring's
// vertices (symmetric requests routed symmetrically); the all-to-all
// instance is the complete graph K_n. A covering of I is checked by pure
// edge bookkeeping, so the package centres on a compact undirected
// multigraph with counted edges, in two representations:
//
//   - Graph, the dense demand: a mutable multigraph over the full pair
//     triangle, built for K_n-like demands where most pairs are present.
//   - Host (host.go), the sparse host: an immutable multigraph with
//     numbered edges and per-vertex neighbour lists, built once when a
//     general-topology instance is admitted. A host with m edges costs
//     O(n + m) to build, check, hash and verify against.
//
// # Dense representation
//
// Graph stores multiplicities in a flat triangular []int32 indexed by the
// rank of the vertex pair (u, v), u < v, in lexicographic order, plus a
// degree array. There is no hashing and no per-edge allocation: Mult, Add
// and Remove are O(1) array operations, whole-graph comparisons
// (EqualCover, Covers, IsSubgraphOf) are linear scans, and CopyFrom
// re-fills a caller-owned scratch graph without allocating once its
// backing arrays have grown to size. Iteration (Edges, ForEachEdge,
// Neighbors) is always in ascending lexicographic pair order — the order
// Host numbers its edges in — so every derived artifact (error messages,
// JSON dumps, content hashes) is deterministic by construction.
package graph

import (
	"fmt"
	"math"
)

// Edge is an undirected vertex pair in canonical order (U < V).
type Edge struct {
	U, V int
}

// NewEdge returns the canonical edge for the unordered pair {u, v}.
// It panics if u == v: the logical graphs in this model are loopless.
func NewEdge(u, v int) Edge {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e that is not w; ok is false if w is not an
// endpoint.
func (e Edge) Other(w int) (int, bool) {
	switch w {
	case e.U:
		return e.V, true
	case e.V:
		return e.U, true
	}
	return 0, false
}

func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// Graph is an undirected multigraph on vertices 0..n-1 with counted edges
// (multiplicity per vertex pair). The zero value is unusable; call New.
type Graph struct {
	n        int
	mult     []int32 // triangular pair-rank array, see rank()
	deg      []int
	m        int // total edge count including multiplicity
	distinct int // vertex pairs with multiplicity >= 1
}

// rank returns the index of pair (u, v), u < v, in the triangular
// multiplicity array: pairs ordered lexicographically, row u holding the
// n-1-u pairs (u, u+1) .. (u, n-1).
func (g *Graph) rank(u, v int) int {
	return u*(g.n-1) - u*(u-1)/2 + v - u - 1
}

// PairCount returns the number of distinct vertex pairs on n vertices —
// the length of the triangular multiplicity array.
func PairCount(n int) int { return n * (n - 1) / 2 }

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, mult: make([]int32, PairCount(n)), deg: make([]int, n)}
}

// Complete returns K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// LambdaComplete returns λK_n, the complete multigraph where every pair is
// joined by lambda parallel edges. It panics for lambda < 1.
func LambdaComplete(n, lambda int) *Graph {
	if lambda < 1 {
		panic("graph: lambda must be >= 1")
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdgeMulti(u, v, lambda)
		}
	}
	return g
}

// Cycle returns the cycle graph C_n (n >= 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: cycle needs n >= 3")
	}
	g := New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	return g
}

// N returns the number of vertices. A nil graph — the demand of a
// zero-value instance — has none; the read accessors (N, M,
// DistinctEdges, Degree, Multiplicity, Mult, HasEdge, Edges,
// EdgesWithMultiplicity, Neighbors, ForEachEdge, EqualCover, Covers) are
// nil-safe so that handing such an instance to a size or membership check
// reports emptiness instead of panicking. Everything else — mutation,
// cloning, traversal — still requires a graph built by New.
func (g *Graph) N() int {
	if g == nil {
		return 0
	}
	return g.n
}

// M returns the number of edges counted with multiplicity; 0 for nil.
func (g *Graph) M() int {
	if g == nil {
		return 0
	}
	return g.m
}

// DistinctEdges returns the number of distinct vertex pairs with at least
// one edge; 0 for nil.
func (g *Graph) DistinctEdges() int {
	if g == nil {
		return 0
	}
	return g.distinct
}

// Degree returns the degree of v counted with multiplicity; 0 for nil.
func (g *Graph) Degree(v int) int {
	if g == nil {
		return 0
	}
	g.check(v)
	return g.deg[v]
}

// Multiplicity returns the number of parallel edges between u and v;
// 0 for nil.
func (g *Graph) Multiplicity(u, v int) int {
	if g == nil {
		return 0
	}
	g.check(u)
	g.check(v)
	if u == v {
		return 0
	}
	if u > v {
		u, v = v, u
	}
	return int(g.mult[g.rank(u, v)])
}

// Mult is Multiplicity under its hot-path name: the O(1) pair-rank array
// read the inner loops are written against.
func (g *Graph) Mult(u, v int) int { return g.Multiplicity(u, v) }

// HasEdge reports whether at least one edge joins u and v.
func (g *Graph) HasEdge(u, v int) bool { return g.Multiplicity(u, v) > 0 }

// AddEdge adds one edge between u and v.
func (g *Graph) AddEdge(u, v int) { g.AddEdgeMulti(u, v, 1) }

// AddEdgeMulti adds k parallel edges between u and v. It panics on
// self-loops, out-of-range vertices, k < 1, or a multiplicity overflowing
// the int32 pair counter.
func (g *Graph) AddEdgeMulti(u, v, k int) {
	g.check(u)
	g.check(v)
	if k < 1 {
		panic("graph: AddEdgeMulti with k < 1")
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if u > v {
		u, v = v, u
	}
	i := g.rank(u, v)
	if int64(g.mult[i])+int64(k) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: multiplicity of {%d,%d} overflows int32", u, v))
	}
	if g.mult[i] == 0 {
		g.distinct++
	}
	g.mult[i] += int32(k)
	g.deg[u] += k
	g.deg[v] += k
	g.m += k
}

// RemoveEdge removes one edge between u and v; it reports whether an edge
// was present.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	i := g.rank(u, v)
	if g.mult[i] == 0 {
		return false
	}
	g.mult[i]--
	if g.mult[i] == 0 {
		g.distinct--
	}
	g.deg[u]--
	g.deg[v]--
	g.m--
	return true
}

// Edges returns the distinct edges in deterministic ascending
// lexicographic order; nil for a nil graph.
func (g *Graph) Edges() []Edge {
	if g == nil {
		return nil
	}
	es := make([]Edge, 0, g.distinct)
	i := 0
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if g.mult[i] > 0 {
				es = append(es, Edge{U: u, V: v})
			}
			i++
		}
	}
	return es
}

// ForEachEdge calls fn for every distinct edge in ascending lexicographic
// order with its multiplicity, stopping early when fn returns false. It
// performs no allocation; nil graphs are a no-op.
func (g *Graph) ForEachEdge(fn func(u, v, mult int) bool) {
	if g == nil {
		return
	}
	i := 0
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if k := g.mult[i]; k > 0 {
				if !fn(u, v, int(k)) {
					return
				}
			}
			i++
		}
	}
}

// EdgesWithMultiplicity returns every edge repeated by its multiplicity,
// in deterministic order; nil for a nil graph.
func (g *Graph) EdgesWithMultiplicity() []Edge {
	if g == nil {
		return nil
	}
	es := make([]Edge, 0, g.m)
	g.ForEachEdge(func(u, v, mult int) bool {
		for i := 0; i < mult; i++ {
			es = append(es, Edge{U: u, V: v})
		}
		return true
	})
	return es
}

// Neighbors returns the distinct neighbours of v in ascending order;
// nil for a nil graph.
func (g *Graph) Neighbors(v int) []int {
	if g == nil {
		return nil
	}
	g.check(v)
	var ns []int
	g.ForEachNeighbor(v, func(w, _ int) bool {
		ns = append(ns, w)
		return true
	})
	return ns
}

// ForEachNeighbor calls fn for every distinct neighbour of v in ascending
// order with the connecting multiplicity, stopping early when fn returns
// false. No allocation.
func (g *Graph) ForEachNeighbor(v int, fn func(w, mult int) bool) {
	if g == nil {
		return
	}
	g.check(v)
	for u := 0; u < v; u++ {
		if k := g.mult[g.rank(u, v)]; k > 0 {
			if !fn(u, int(k)) {
				return
			}
		}
	}
	// Row v is contiguous: pairs (v, v+1) .. (v, n-1).
	i := g.rank(v, v+1)
	for w := v + 1; w < g.n; w++ {
		if k := g.mult[i]; k > 0 {
			if !fn(w, int(k)) {
				return
			}
		}
		i++
	}
}

// firstNeighbor returns the lowest-numbered neighbour of v, or -1.
func (g *Graph) firstNeighbor(v int) int {
	first := -1
	g.ForEachNeighbor(v, func(w, _ int) bool {
		first = w
		return false
	})
	return first
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{}
	c.CopyFrom(g)
	return c
}

// CopyFrom makes g an exact copy of src, reusing g's backing arrays when
// they are large enough: a scratch graph copied from same-sized sources
// allocates only on first use. It panics on a nil src.
func (g *Graph) CopyFrom(src *Graph) {
	g.Reset(src.n)
	copy(g.mult, src.mult)
	copy(g.deg, src.deg)
	g.m = src.m
	g.distinct = src.distinct
}

// Reset makes g the empty graph on n vertices, reusing its backing arrays
// when they are large enough.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	pairs := PairCount(n)
	if cap(g.mult) < pairs {
		g.mult = make([]int32, pairs)
	} else {
		g.mult = g.mult[:pairs]
		clear(g.mult)
	}
	if cap(g.deg) < n {
		g.deg = make([]int, n)
	} else {
		g.deg = g.deg[:n]
		clear(g.deg)
	}
	g.n = n
	g.m = 0
	g.distinct = 0
}

// EqualCover reports whether two graphs are identical as demand coverings:
// same vertex count and the same edge multiset (every pair with equal
// multiplicity). It is an allocation-free O(n²) scan; nil graphs equal
// empty graphs on zero vertices.
func (g *Graph) EqualCover(h *Graph) bool {
	if g.N() != h.N() {
		return false
	}
	if g == nil || h == nil {
		return true
	}
	if g.m != h.m || g.distinct != h.distinct {
		return false
	}
	for i, k := range g.mult {
		if k != h.mult[i] {
			return false
		}
	}
	return true
}

// Covers reports whether g serves h as a demand: every edge of h appears
// in g with at least its multiplicity. It requires h to fit (h.N() ≤
// g.N()) and is an allocation-free linear scan; a nil h is vacuously
// covered.
func (g *Graph) Covers(h *Graph) bool {
	if h.N() == 0 {
		return true
	}
	if g.N() < h.N() {
		return false
	}
	covered := true
	h.ForEachEdge(func(u, v, need int) bool {
		if g.Multiplicity(u, v) < need {
			covered = false
			return false
		}
		return true
	})
	return covered
}

// IsSubgraphOf reports whether every edge of g (with multiplicity) appears
// in h.
func (g *Graph) IsSubgraphOf(h *Graph) bool {
	if g.n > h.n {
		return false
	}
	return h.Covers(g)
}

// Connected reports whether the graph is connected, ignoring isolated
// vertices when ignoreIsolated is set. The empty graph counts as
// connected.
func (g *Graph) Connected(ignoreIsolated bool) bool {
	start := -1
	for v := 0; v < g.n; v++ {
		if g.deg[v] > 0 || !ignoreIsolated {
			start = v
			break
		}
	}
	if start == -1 {
		return true
	}
	seen := make([]bool, g.n)
	queue := []int{start}
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.ForEachNeighbor(v, func(w, _ int) bool {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
			return true
		})
	}
	for v := 0; v < g.n; v++ {
		if !seen[v] && (g.deg[v] > 0 || !ignoreIsolated) {
			return false
		}
	}
	return true
}

// EveryDegreeEven reports whether every vertex has even degree — the
// Eulerian condition used by the DRC structure argument (Fact A in
// DESIGN.md): the union of edge-disjoint routes of a cycle's requests has
// all-even degrees on the ring.
func (g *Graph) EveryDegreeEven() bool {
	for _, d := range g.deg {
		if d%2 != 0 {
			return false
		}
	}
	return true
}

// EulerCircuit returns an Eulerian circuit as a vertex walk (first ==
// last) if the graph is connected (ignoring isolated vertices) with all
// degrees even and at least one edge; ok reports success. Hierholzer's
// algorithm on the multigraph.
func (g *Graph) EulerCircuit() ([]int, bool) {
	if g.m == 0 || !g.EveryDegreeEven() || !g.Connected(true) {
		return nil, false
	}
	work := g.Clone()
	start := -1
	for v := 0; v < g.n; v++ {
		if work.deg[v] > 0 {
			start = v
			break
		}
	}
	// Hierholzer: walk until stuck (back at a vertex with no unused
	// edges), splicing sub-tours.
	circuit := []int{start}
	for i := 0; i < len(circuit); i++ {
		v := circuit[i]
		if work.deg[v] == 0 {
			continue
		}
		// Grow a sub-tour from v and splice it in at position i.
		var tour []int
		cur := v
		for work.deg[cur] > 0 {
			next := work.firstNeighbor(cur)
			work.RemoveEdge(cur, next)
			tour = append(tour, next)
			cur = next
		}
		spliced := make([]int, 0, len(circuit)+len(tour))
		spliced = append(spliced, circuit[:i+1]...)
		spliced = append(spliced, tour...)
		spliced = append(spliced, circuit[i+1:]...)
		circuit = spliced
	}
	if work.m != 0 {
		return nil, false
	}
	return circuit, true
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
