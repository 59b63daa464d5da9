package graph

import (
	"reflect"
	"sort"
	"testing"
)

// refGraph is the map-backed reference implementation the dense core
// replaced: straightforward bookkeeping with no shared code, used as the
// ground truth for the property fuzz below.
type refGraph struct {
	n    int
	mult map[Edge]int
	deg  []int
	m    int
}

func newRef(n int) *refGraph {
	return &refGraph{n: n, mult: make(map[Edge]int), deg: make([]int, n)}
}

func (g *refGraph) add(u, v, k int) {
	e := NewEdge(u, v)
	g.mult[e] += k
	g.deg[u] += k
	g.deg[v] += k
	g.m += k
}

func (g *refGraph) remove(u, v int) bool {
	if u == v {
		return false
	}
	e := NewEdge(u, v)
	if g.mult[e] == 0 {
		return false
	}
	g.mult[e]--
	if g.mult[e] == 0 {
		delete(g.mult, e)
	}
	g.deg[u]--
	g.deg[v]--
	g.m--
	return true
}

func (g *refGraph) edges() []Edge {
	es := make([]Edge, 0, len(g.mult))
	for e := range g.mult {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

func (g *refGraph) covers(h *refGraph) bool {
	if h.n == 0 {
		return true
	}
	if g.n < h.n {
		return false
	}
	for e, k := range h.mult {
		if g.mult[e] < k {
			return false
		}
	}
	return true
}

// FuzzGraphOps drives the dense graph and the map reference through the
// same random operation sequence over two graphs and checks that every
// observable — Mult, Degree, M, DistinctEdges, Edges order, EqualCover —
// agrees at every step.
func FuzzGraphOps(f *testing.F) {
	f.Add(uint8(5), []byte{0x01, 0x12, 0x83, 0x24, 0x45})
	f.Add(uint8(3), []byte{0x01, 0x01, 0x81, 0x01})
	f.Add(uint8(12), []byte{0x5b, 0x12, 0x9a, 0x34, 0xff, 0x00, 0x77})
	f.Add(uint8(2), []byte{})

	f.Fuzz(func(t *testing.T, nRaw uint8, ops []byte) {
		n := 2 + int(nRaw)%14 // 2..15 vertices
		dense := [2]*Graph{New(n), New(n)}
		ref := [2]*refGraph{newRef(n), newRef(n)}

		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i]
			which := int(op>>6) & 1
			u := int(op) % n
			v := int(ops[i+1]) % n
			if u == v {
				continue
			}
			d, r := dense[which], ref[which]
			if op&0x80 != 0 {
				got := d.RemoveEdge(u, v)
				want := r.remove(u, v)
				if got != want {
					t.Fatalf("RemoveEdge(%d,%d) = %v, reference %v", u, v, got, want)
				}
			} else {
				k := 1 + int(ops[i+1]>>5)
				d.AddEdgeMulti(u, v, k)
				r.add(u, v, k)
			}
			if d.Mult(u, v) != r.mult[NewEdge(u, v)] {
				t.Fatalf("Mult(%d,%d) = %d, reference %d", u, v, d.Mult(u, v), r.mult[NewEdge(u, v)])
			}
			if d.Degree(u) != r.deg[u] || d.Degree(v) != r.deg[v] {
				t.Fatalf("Degree mismatch at {%d,%d}", u, v)
			}
		}

		for w := 0; w < 2; w++ {
			d, r := dense[w], ref[w]
			if d.M() != r.m {
				t.Fatalf("graph %d: M() = %d, reference %d", w, d.M(), r.m)
			}
			if d.DistinctEdges() != len(r.mult) {
				t.Fatalf("graph %d: DistinctEdges() = %d, reference %d", w, d.DistinctEdges(), len(r.mult))
			}
			if got, want := d.Edges(), r.edges(); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("graph %d: Edges() = %v, reference %v", w, got, want)
			}
			// ForEachEdge must agree with Edges in content and order.
			var walked []Edge
			d.ForEachEdge(func(u, v, mult int) bool {
				walked = append(walked, Edge{U: u, V: v})
				if d.Mult(u, v) != mult {
					t.Fatalf("graph %d: ForEachEdge mult %d != Mult %d at {%d,%d}", w, mult, d.Mult(u, v), u, v)
				}
				return true
			})
			if !reflect.DeepEqual(walked, d.Edges()) && (len(walked) != 0 || len(d.Edges()) != 0) {
				t.Fatalf("graph %d: ForEachEdge order %v != Edges %v", w, walked, d.Edges())
			}
		}

		// Cross-graph relation.
		wantEq := ref[0].covers(ref[1]) && ref[1].covers(ref[0])
		if got := dense[0].EqualCover(dense[1]); got != wantEq {
			t.Fatalf("EqualCover = %v, reference %v", got, wantEq)
		}

		// Clone and CopyFrom must preserve the cover exactly.
		c := dense[0].Clone()
		if !c.EqualCover(dense[0]) {
			t.Fatal("Clone not EqualCover to source")
		}
		var copied Graph
		copied.CopyFrom(dense[1])
		if !copied.EqualCover(dense[1]) {
			t.Fatal("CopyFrom not EqualCover to source")
		}
	})
}

// denseFindBridge is the iterative Tarjan low-link DFS that found
// bridges on the dense Graph before general hosts became sparse. It is
// kept as the reference FuzzHost holds Host.FindBridge to: the same
// bridge must be named, because admission errors name it.
func denseFindBridge(g *Graph) (Edge, bool) {
	n := g.N()
	if n == 0 {
		return Edge{}, false
	}
	disc := make([]int, n) // discovery time, 0 = unvisited
	low := make([]int, n)  // low-link
	parent := make([]int, n)
	for v := range parent {
		parent[v] = -1
	}
	time := 0

	// Explicit stack: frame (vertex, index into its neighbor list), the
	// neighbor list materialized per frame.
	type frame struct {
		v    int
		nbrs []int
		next int
	}
	var bridge Edge
	found := false
	for root := 0; root < n && !found; root++ {
		if disc[root] != 0 {
			continue
		}
		time++
		disc[root] = time
		low[root] = time
		stack := []frame{{v: root, nbrs: g.Neighbors(root)}}
		for len(stack) > 0 && !found {
			f := &stack[len(stack)-1]
			if f.next < len(f.nbrs) {
				w := f.nbrs[f.next]
				f.next++
				if disc[w] == 0 {
					parent[w] = f.v
					time++
					disc[w] = time
					low[w] = time
					stack = append(stack, frame{v: w, nbrs: g.Neighbors(w)})
				} else if w != parent[f.v] || g.Mult(f.v, w) > 1 {
					// Back edge — or the tree edge seen again through a
					// parallel copy, which legitimately lowers low.
					if disc[w] < low[f.v] {
						low[f.v] = disc[w]
					}
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[f.v]; p != -1 {
				if low[f.v] < low[p] {
					low[p] = low[f.v]
				}
				if low[f.v] > disc[p] && g.Mult(p, f.v) == 1 {
					bridge = NewEdge(p, f.v)
					found = true
				}
			}
		}
	}
	return bridge, found
}

// denseConnected is a breadth-first search over the dense Graph from
// vertex 0, the reference FuzzHost holds Host.Connected to: every
// vertex, isolated ones included, must be reached.
func denseConnected(g *Graph) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	seen[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}

// FuzzHost builds a sparse Host and a dense Graph from the same random
// edge multiset and checks that every observable agrees: M,
// DistinctEdges, Degree, Mult, the ascending ForEachEdge walk with its
// multiplicities, each vertex's Neighbors, the edge ids behind the
// adjacency lists, Connected, and the bridge FindBridge names.
func FuzzHost(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 2, 3})
	f.Add(uint8(4), []byte{0, 1, 1, 0, 2, 3, 3, 2, 0, 2, 1, 3})
	f.Add(uint8(10), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 5, 1, 6, 2, 7, 3, 8, 4, 9, 5, 7, 7, 9, 9, 6, 6, 8, 8, 5})
	f.Add(uint8(7), []byte{0, 1, 1, 2, 2, 0, 5, 6})
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint8, raw []byte) {
		n := 1 + int(nRaw)%24
		dense := New(n)
		var es []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := int(raw[i])%n, int(raw[i+1])%n
			if u == v {
				continue
			}
			es = append(es, Edge{U: u, V: v})
			dense.AddEdge(u, v)
		}
		h := NewHost(n, es)
		if h.N() != n || h.M() != dense.M() || h.DistinctEdges() != dense.DistinctEdges() {
			t.Fatalf("N/M/DistinctEdges = %d/%d/%d, dense %d/%d/%d",
				h.N(), h.M(), h.DistinctEdges(), n, dense.M(), dense.DistinctEdges())
		}
		var want, got []int
		dense.ForEachEdge(func(u, v, mult int) bool {
			want = append(want, u, v, mult)
			return true
		})
		h.ForEachEdge(func(u, v, mult int) bool {
			got = append(got, u, v, mult)
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ForEachEdge walk %v, dense %v", got, want)
		}
		for v := 0; v < n; v++ {
			if h.Degree(v) != dense.Degree(v) {
				t.Fatalf("Degree(%d) = %d, dense %d", v, h.Degree(v), dense.Degree(v))
			}
			for u := 0; u < n; u++ {
				if h.Mult(u, v) != dense.Mult(u, v) {
					t.Fatalf("Mult(%d,%d) = %d, dense %d", u, v, h.Mult(u, v), dense.Mult(u, v))
				}
			}
			nbrs, ids := h.Adj(v)
			dn := dense.Neighbors(v)
			if len(nbrs) != len(dn) {
				t.Fatalf("Neighbors(%d) = %v, dense %v", v, nbrs, dn)
			}
			for i, w := range nbrs {
				if int(w) != dn[i] {
					t.Fatalf("Neighbors(%d) = %v, dense %v", v, nbrs, dn)
				}
				if e := h.Edge(int(ids[i])); e != NewEdge(v, int(w)) {
					t.Fatalf("arc %d→%d carries edge %d = %v", v, w, ids[i], e)
				}
				if id, ok := h.EdgeID(v, int(w)); !ok || id != int(ids[i]) {
					t.Fatalf("EdgeID(%d,%d) = %d,%v, want %d", v, w, id, ok, ids[i])
				}
			}
		}
		if got, want := h.Connected(), denseConnected(dense); got != want {
			t.Fatalf("Connected = %v, dense %v", got, want)
		}
		ge, gok := h.FindBridge()
		we, wok := denseFindBridge(dense)
		if ge != we || gok != wok {
			t.Fatalf("FindBridge = %v,%v, dense Tarjan %v,%v", ge, gok, we, wok)
		}
	})
}
