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
// and Remove are O(1) array operations, the whole-graph comparison
// EqualCover is a linear scan, and CopyFrom re-fills a caller-owned
// scratch graph without allocating once its backing arrays have grown to
// size. Iteration (Edges, ForEachEdge,
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
func Complete(n int) *Graph { return LambdaComplete(n, 1) }

// LambdaComplete returns λK_n, the complete multigraph where every pair is
// joined by lambda parallel edges. It panics for lambda < 1 and, like
// AddEdgeMulti, when lambda overflows the int32 pair counter. The pair
// array, degrees and counts are filled in one pass.
func LambdaComplete(n, lambda int) *Graph {
	if lambda < 1 {
		panic("graph: lambda must be >= 1")
	}
	g := New(n)
	if len(g.mult) == 0 {
		return g
	}
	if lambda > math.MaxInt32 {
		panic("graph: multiplicity of {0,1} overflows int32")
	}
	for i := range g.mult {
		g.mult[i] = int32(lambda)
	}
	for v := range g.deg {
		g.deg[v] = (n - 1) * lambda
	}
	g.distinct = len(g.mult)
	g.m = g.distinct * lambda
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
// DistinctEdges, Degree, Multiplicity, Mult, HasEdge, Edges, Neighbors,
// ForEachEdge, ForEachNeighbor, EqualCover) are nil-safe so that handing
// such an instance to a size or membership check reports emptiness
// instead of panicking. Everything else — mutation and cloning — still
// requires a graph built by New.
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

// UniformMultiplicity reports whether every vertex pair is joined by the
// same number λ ≥ 1 of edges — whether g is λK_n — and returns λ. It
// scans the pair array directly; a nil graph or one with no pairs is
// not uniform.
func (g *Graph) UniformMultiplicity() (int, bool) {
	if g == nil || len(g.mult) == 0 || g.distinct != len(g.mult) || g.m%len(g.mult) != 0 {
		return 0, false
	}
	lam := int32(g.m / len(g.mult))
	for _, k := range g.mult {
		if k != lam {
			return 0, false
		}
	}
	return int(lam), true
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

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
