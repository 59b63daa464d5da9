package graph

import (
	"fmt"
	"math"
)

// Host is an immutable sparse multigraph on vertices 0..n-1: the host
// graph of a general-topology instance. Every general family builds one
// at admission and everything downstream — the admission checks, the
// cache signature, the cover verifier, the lower bound and the
// shortest-cycle-cover strategies — reads this one index, so a host
// with m edges costs O(n + m) where the dense triangular Graph costs
// Θ(n²).
//
// The distinct edges carry ids 0..DistinctEdges()-1 in ascending (u, v)
// order, u < v — the order Graph.ForEachEdge walks — each with its
// multiplicity. Each vertex's distinct neighbours are stored in
// ascending order beside the ids of the connecting edges (a compressed
// sparse row layout), and degrees count multiplicity.
//
// The read accessors N, M and DistinctEdges are nil-safe, so a size
// check on a zero-value instance reports emptiness instead of
// panicking.
type Host struct {
	n    int
	m    int        // edges counted with multiplicity
	ends [][2]int32 // edge id → endpoints (u, v), u < v
	mult []int32    // edge id → multiplicity
	deg  []int32    // vertex → degree with multiplicity
	off  []int32    // v's arcs are nbr[off[v]:off[v+1]] and eid[off[v]:off[v+1]]
	nbr  []int32    // distinct neighbours, ascending per vertex
	eid  []int32    // id of the edge behind each arc
}

// NewHost builds the host on n vertices from an edge multiset: each
// entry adds one edge, endpoints in either order, and repeated pairs
// accumulate multiplicity. The build is two stable counting sorts of the
// 2m arcs, O(n + m). It panics on a self-loop, an out-of-range endpoint
// or a size beyond int32, like Graph.AddEdge.
func NewHost(n int, edges []Edge) *Host {
	if n < 0 || n > math.MaxInt32-1 || len(edges) > math.MaxInt32/2 {
		panic(fmt.Sprintf("graph: host with %d vertices and %d edges is out of range", n, len(edges)))
	}
	h := &Host{n: n, m: len(edges), deg: make([]int32, n), off: make([]int32, n+1)}
	for _, e := range edges {
		if e.U == e.V {
			panic(fmt.Sprintf("graph: self-loop at vertex %d", e.U))
		}
		h.check(e.U)
		h.check(e.V)
		h.deg[e.U]++
		h.deg[e.V]++
	}
	// start[v] is where v's arcs begin, by source and by target alike.
	start := make([]int32, n+1)
	for v, d := range h.deg {
		start[v+1] = start[v] + d
	}
	pos := make([]int32, n)
	// Bucket the arcs by target, remembering each one's source...
	copy(pos, start)
	src := make([]int32, 2*len(edges))
	for _, e := range edges {
		src[pos[e.V]] = int32(e.U)
		pos[e.V]++
		src[pos[e.U]] = int32(e.V)
		pos[e.U]++
	}
	// ...then stably by source: each source's targets come out ascending.
	copy(pos, start)
	dst := make([]int32, 2*len(edges))
	for t := 0; t < n; t++ {
		for _, s := range src[start[t]:start[t+1]] {
			dst[pos[s]] = int32(t)
			pos[s]++
		}
	}
	// Collapse each run of equal targets into one arc, in place; a run's
	// length is the pair's multiplicity.
	runs := src[:0] // src is spent: reuse it for the run lengths
	k := int32(0)
	for v := 0; v < n; v++ {
		h.off[v] = k
		for i := start[v]; i < start[v+1]; i++ {
			if i > start[v] && dst[i] == dst[i-1] {
				runs[k-1]++
				continue
			}
			dst[k] = dst[i]
			runs = append(runs, 1)
			k++
		}
	}
	h.off[n] = k
	h.nbr = dst[:k:k]
	// Number the distinct edges in ascending (u, v) order. v's lower
	// neighbours head its list in ascending order, and they are numbered
	// in that same order, so pos[v] walks them as their ids are minted.
	h.eid = make([]int32, k)
	h.ends = make([][2]int32, 0, k/2)
	h.mult = make([]int32, 0, k/2)
	copy(pos, h.off[:n])
	for u := 0; u < n; u++ {
		for a := h.off[u]; a < h.off[u+1]; a++ {
			v := h.nbr[a]
			if v < int32(u) {
				continue
			}
			id := int32(len(h.ends))
			h.ends = append(h.ends, [2]int32{int32(u), v})
			h.mult = append(h.mult, runs[a])
			h.eid[a] = id
			h.eid[pos[v]] = id
			pos[v]++
		}
	}
	return h
}

// N returns the number of vertices; 0 for nil.
func (h *Host) N() int {
	if h == nil {
		return 0
	}
	return h.n
}

// M returns the number of edges counted with multiplicity; 0 for nil.
func (h *Host) M() int {
	if h == nil {
		return 0
	}
	return h.m
}

// DistinctEdges returns the number of distinct vertex pairs joined by
// at least one edge — the number of edge ids; 0 for nil.
func (h *Host) DistinctEdges() int {
	if h == nil {
		return 0
	}
	return len(h.ends)
}

// Degree returns the degree of v counted with multiplicity.
func (h *Host) Degree(v int) int {
	h.check(v)
	return int(h.deg[v])
}

// Edge returns the endpoints of edge id, U < V.
func (h *Host) Edge(id int) Edge {
	e := h.ends[id]
	return Edge{U: int(e[0]), V: int(e[1])}
}

// Adj returns v's distinct neighbours in ascending order and, index for
// index, the ids of the connecting edges. Both slices are views into
// the host and must not be modified.
func (h *Host) Adj(v int) (nbrs, ids []int32) {
	h.check(v)
	lo, hi := h.off[v], h.off[v+1]
	return h.nbr[lo:hi:hi], h.eid[lo:hi:hi]
}

// Neighbors returns v's distinct neighbours in ascending order, as a
// view into the host that must not be modified.
func (h *Host) Neighbors(v int) []int32 {
	nbrs, _ := h.Adj(v)
	return nbrs
}

// EdgeID returns the id of the edge joining u and v; ok is false when
// they are not adjacent or either lies outside the host. The scan is
// over u's neighbour list, O(deg(u)).
func (h *Host) EdgeID(u, v int) (id int, ok bool) {
	if u < 0 || u >= h.n || v < 0 || v >= h.n {
		return 0, false
	}
	w := int32(v)
	for a := h.off[u]; a < h.off[u+1]; a++ {
		if h.nbr[a] == w {
			return int(h.eid[a]), true
		}
	}
	return 0, false
}

// Mult returns the number of parallel edges joining u and v.
func (h *Host) Mult(u, v int) int {
	h.check(u)
	h.check(v)
	if id, ok := h.EdgeID(u, v); ok {
		return int(h.mult[id])
	}
	return 0
}

// ForEachEdge calls fn for every distinct edge in id order — ascending
// (u, v), the order of Graph.ForEachEdge — with its multiplicity,
// stopping early when fn returns false.
func (h *Host) ForEachEdge(fn func(u, v, mult int) bool) {
	for id, e := range h.ends {
		if !fn(int(e[0]), int(e[1]), int(h.mult[id])) {
			return
		}
	}
}

// MinDegree returns the smallest vertex degree (with multiplicity); 0
// for an empty host.
func (h *Host) MinDegree() int {
	if h.n == 0 {
		return 0
	}
	least := h.deg[0]
	for _, d := range h.deg[1:] {
		least = min(least, d)
	}
	return int(least)
}

// IsCubic reports whether every vertex has degree exactly 3 — the graph
// class of the short-cycle-cover literature (Kaiser et al., Hägglund &
// Markström). False for an empty host.
func (h *Host) IsCubic() bool {
	if h.n == 0 {
		return false
	}
	for _, d := range h.deg {
		if d != 3 {
			return false
		}
	}
	return true
}

// Connected reports whether every vertex is reachable from vertex 0;
// an isolated vertex disconnects the host. The empty host counts as
// connected.
func (h *Host) Connected() bool {
	if h.n == 0 {
		return true
	}
	seen := make([]bool, h.n)
	stack := make([]int32, 1, h.n)
	seen[0] = true
	reached := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range h.nbr[h.off[v]:h.off[v+1]] {
			if !seen[w] {
				seen[w] = true
				reached++
				stack = append(stack, w)
			}
		}
	}
	return reached == h.n
}

// FindBridge returns a bridge of the host — an edge whose removal
// disconnects its component — and ok = true when one exists. Parallel
// edges are never bridges (removing one copy leaves the other), so only
// edges of multiplicity 1 qualify. The scan is an iterative Tarjan
// low-link DFS over every component, O(n + m). With several bridges
// present the one returned is deterministic: roots are tried in
// ascending order, neighbours in ascending order, and the first edge
// whose subtree closes with no way back is named.
func (h *Host) FindBridge() (Edge, bool) {
	n := h.n
	disc := make([]int32, n) // discovery time, 0 = unvisited
	low := make([]int32, n)  // low-link
	up := make([]int32, n)   // id of the tree edge to the parent, -1 at a root
	next := make([]int32, n) // next arc of v's list to explore
	stack := make([]int32, 0, n)
	clock := int32(0)
	for root := 0; root < n; root++ {
		if disc[root] != 0 {
			continue
		}
		clock++
		disc[root], low[root], up[root], next[root] = clock, clock, -1, h.off[root]
		stack = append(stack[:0], int32(root))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if a := next[v]; a < h.off[v+1] {
				next[v]++
				w, id := h.nbr[a], h.eid[a]
				if disc[w] == 0 {
					clock++
					disc[w], low[w], up[w], next[w] = clock, clock, id, h.off[w]
					stack = append(stack, w)
				} else if id != up[v] || h.mult[id] > 1 {
					// A back edge — or the tree edge seen again through a
					// parallel copy, which legitimately lowers low.
					low[v] = min(low[v], disc[w])
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if id := up[v]; id >= 0 {
				p := stack[len(stack)-1]
				low[p] = min(low[p], low[v])
				if low[v] > disc[p] && h.mult[id] == 1 {
					return h.Edge(int(id)), true
				}
			}
		}
	}
	return Edge{}, false
}

// Bridgeless reports whether the host has no bridge. Vacuously true for
// an edgeless host; combine with Connected for the admission check of
// the general-topology instance family.
func (h *Host) Bridgeless() bool {
	_, found := h.FindBridge()
	return !found
}

func (h *Host) check(v int) {
	if v < 0 || v >= h.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, h.n))
	}
}
