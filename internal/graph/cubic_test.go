package graph

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// threeEdgeColorable reports whether the graph admits a proper
// 3-edge-coloring, by backtracking over the deterministic edge order.
// A bridgeless cubic graph that fails this is by definition a snark
// (modulo girth/triviality conventions), so the generator tests use it
// to certify the snark families.
func threeEdgeColorable(g *Graph) bool {
	edges := g.Edges()
	color := make(map[Edge]int, len(edges))
	var ok func(i int) bool
	ok = func(i int) bool {
		if i == len(edges) {
			return true
		}
		e := edges[i]
		for c := 1; c <= 3; c++ {
			clash := false
			for _, f := range edges[:i] {
				if color[f] != c {
					continue
				}
				if f.U == e.U || f.U == e.V || f.V == e.U || f.V == e.V {
					clash = true
					break
				}
			}
			if clash {
				continue
			}
			color[e] = c
			if ok(i + 1) {
				return true
			}
			delete(color, e)
		}
		return false
	}
	return ok(0)
}

// girth returns the length of the shortest cycle via BFS from every
// vertex; 0 when the graph is acyclic. Test-only, quadratic-ish.
func girth(g *Graph) int {
	best := 0
	for s := 0; s < g.N(); s++ {
		dist := make([]int, g.N())
		par := make([]int, g.N())
		for i := range dist {
			dist[i], par[i] = -1, -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					par[w] = v
					queue = append(queue, w)
				} else if w != par[v] && par[w] != v {
					if c := dist[v] + dist[w] + 1; best == 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// checkCubicHost asserts the structural contract every cubic host family
// promises: simple, cubic, connected, bridgeless.
func checkCubicHost(t *testing.T, name string, g *Graph) {
	t.Helper()
	if !g.IsCubic() {
		t.Fatalf("%s: not cubic (min degree %d)", name, g.MinDegree())
	}
	if g.M() != g.DistinctEdges() {
		t.Fatalf("%s: has parallel edges", name)
	}
	if !g.Connected(false) {
		t.Fatalf("%s: disconnected", name)
	}
	if e, found := g.FindBridge(); found {
		t.Fatalf("%s: has bridge %v", name, e)
	}
}

func TestPetersen(t *testing.T) {
	g := Petersen()
	checkCubicHost(t, "petersen", g)
	if g.N() != 10 || g.M() != 15 {
		t.Fatalf("petersen: n=%d m=%d, want 10/15", g.N(), g.M())
	}
	if got := girth(g); got != 5 {
		t.Fatalf("petersen girth = %d, want 5", got)
	}
	if threeEdgeColorable(g) {
		t.Fatal("petersen is 3-edge-colorable — not the Petersen graph")
	}
}

func TestBlanusaSnarks(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"blanusa1", BlanusaFirst()},
		{"blanusa2", BlanusaSecond()},
	} {
		name, g := tc.name, tc.g
		t.Run(name, func(t *testing.T) {
			checkCubicHost(t, name, g)
			if g.N() != 18 || g.M() != 27 {
				t.Fatalf("%s: n=%d m=%d, want 18/27", name, g.N(), g.M())
			}
			if got := girth(g); got != 5 {
				t.Fatalf("%s girth = %d, want 5", name, got)
			}
			if threeEdgeColorable(g) {
				t.Fatalf("%s is 3-edge-colorable — dot product wiring broken", name)
			}
		})
	}
}

func TestFlowerSnarks(t *testing.T) {
	for _, k := range []int{5, 7} {
		t.Run(fmt.Sprintf("J%d", k), func(t *testing.T) {
			g := FlowerSnark(k)
			checkCubicHost(t, fmt.Sprintf("flower J_%d", k), g)
			if g.N() != 4*k || g.M() != 6*k {
				t.Fatalf("J_%d: n=%d m=%d, want %d/%d", k, g.N(), g.M(), 4*k, 6*k)
			}
			if threeEdgeColorable(g) {
				t.Fatalf("J_%d is 3-edge-colorable — not a snark", k)
			}
		})
	}
	// J_3 is cubic and bridgeless but not a snark by convention; the
	// generator still produces a valid host.
	checkCubicHost(t, "flower J_3", FlowerSnark(3))
}

func TestPrism(t *testing.T) {
	for _, k := range []int{3, 4, 6} {
		g := Prism(k)
		checkCubicHost(t, fmt.Sprintf("prism %d", k), g)
		if !threeEdgeColorable(g) {
			t.Fatalf("prism %d is not 3-edge-colorable — prisms are hamiltonian", k)
		}
	}
}

func TestRandomCubicBridgeless(t *testing.T) {
	for _, n := range []int{4, 8, 14} {
		for seed := int64(0); seed < 3; seed++ {
			g, err := RandomCubicBridgeless(n, seed)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			checkCubicHost(t, fmt.Sprintf("cubic n=%d seed=%d", n, seed), g)
		}
	}
	// Determinism: same seed, same graph.
	a, _ := RandomCubicBridgeless(12, 42)
	b, _ := RandomCubicBridgeless(12, 42)
	if !a.EqualCover(b) {
		t.Fatal("RandomCubicBridgeless not deterministic for a fixed seed")
	}
	if _, err := RandomCubicBridgeless(5, 1); err == nil {
		t.Fatal("odd n accepted")
	}
	if _, err := RandomCubicBridgeless(2, 1); err == nil {
		t.Fatal("n=2 accepted")
	}
}

// cubicGolden pins RandomCubicBridgeless's output: an FNV-1a hash of
// each sampled graph's edge list, recorded before the sampler learned
// to reject non-simple pairings on a neighbour table. Same shuffles,
// same accept/reject decisions, so every (n, seed) keeps its graph.
var cubicGolden = []struct {
	n    int
	seed int64
	hash uint64
}{
	{4, 0, 0xbd2c58e45cc49061},
	{4, 1, 0xbd2c58e45cc49061},
	{4, 7919, 0xbd2c58e45cc49061},
	{4, -3, 0xbd2c58e45cc49061},
	{10, 0, 0x6fefbba6d09785f2},
	{10, 1, 0xf8f8088b8b0dc61e},
	{10, 7919, 0xb9d68f199c007454},
	{10, -3, 0x07eb46e3df6788f6},
	{26, 0, 0xa1cd5f8fc251d3f6},
	{26, 1, 0x3f0d429c3f3ec1c6},
	{26, 7919, 0xe06121f01c1fc04e},
	{26, -3, 0x1fca9ff77e0f58ac},
	{44, 0, 0x05c46fb99e569719},
	{44, 1, 0x9079f5ad008ca8e5},
	{44, 7919, 0xe4c744dfa7e23395},
	{44, -3, 0x3655557b0c39fc31},
	{120, 0, 0x9ed591328f9a5c37},
	{120, 1, 0x255bc572c0992089},
	{120, 7919, 0x5d21f972271ba8f9},
	{120, -3, 0x937f5ce10f33551f},
	{1024, 0, 0x1c0cca02abbf2905},
	{1024, 1, 0x17713f04e83b16c1},
	{1024, 7919, 0x4fb2e26ca53a6bc5},
	{1024, -3, 0xd57b154c83f80937},
}

// edgeListHash hashes the edge list in ForEachEdge order, with
// multiplicities.
func edgeListHash(g *Graph) uint64 {
	h := fnv.New64a()
	g.ForEachEdge(func(u, v, mult int) bool {
		fmt.Fprintf(h, "%d-%d×%d,", u, v, mult)
		return true
	})
	return h.Sum64()
}

func TestRandomCubicGolden(t *testing.T) {
	for _, tc := range cubicGolden {
		g, err := RandomCubicBridgeless(tc.n, tc.seed)
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", tc.n, tc.seed, err)
		}
		if got := edgeListHash(g); got != tc.hash {
			t.Errorf("n=%d seed=%d: edge-list hash %#016x, want %#016x", tc.n, tc.seed, got, tc.hash)
		}
	}
}

// BenchmarkRandomCubic is the configuration-model sampler behind
// cubic:<seed> specs.
func BenchmarkRandomCubic(b *testing.B) {
	for _, n := range []int{80, 120} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RandomCubicBridgeless(n, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestFindBridge(t *testing.T) {
	// Two triangles joined by one edge: that edge is the unique bridge.
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		g.AddEdge(e[0], e[1])
	}
	e, found := g.FindBridge()
	if !found || e != (Edge{U: 2, V: 3}) {
		t.Fatalf("bridge = %v found=%v, want {2,3}", e, found)
	}
	if g.Bridgeless() {
		t.Fatal("bridged graph reported bridgeless")
	}
	// Doubling the bridge removes it: parallel edges are never bridges.
	g.AddEdge(2, 3)
	if e, found := g.FindBridge(); found {
		t.Fatalf("doubled edge still reported as bridge %v", e)
	}
	// A tree is all bridges; a cycle has none; the empty graph is
	// vacuously bridgeless.
	tree := New(4)
	tree.AddEdge(0, 1)
	tree.AddEdge(1, 2)
	tree.AddEdge(1, 3)
	if tree.Bridgeless() {
		t.Fatal("tree reported bridgeless")
	}
	if !Cycle(7).Bridgeless() {
		t.Fatal("cycle reported bridged")
	}
	if !New(5).Bridgeless() {
		t.Fatal("edgeless graph reported bridged")
	}
	// Disconnected components are scanned independently: a bridge hiding
	// in the second component is still found.
	g2 := New(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {5, 6}} {
		g2.AddEdge(e[0], e[1])
	}
	if g2.Bridgeless() {
		t.Fatal("bridge {5,6} in second component missed")
	}
}
