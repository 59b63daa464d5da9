package topo

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
)

func TestGridStructure(t *testing.T) {
	g := Grid(3, 2)
	if g.G.N() != 6 {
		t.Fatalf("3x2 grid: %d vertices", g.G.N())
	}
	if g.G.M() != 7 {
		t.Fatalf("3x2 grid: %d edges, want 7", g.G.M())
	}
	if !g.G.HasEdge(0, 1) || !g.G.HasEdge(0, 3) || g.G.HasEdge(2, 3) {
		t.Error("grid adjacency wrong")
	}
}

func TestTorusStructure(t *testing.T) {
	g := Torus(4, 3)
	if g.G.N() != 12 || g.G.M() != 24 {
		t.Fatalf("4x3 torus: %d vertices %d edges, want 12, 24", g.G.N(), g.G.M())
	}
	for v := 0; v < 12; v++ {
		if g.G.Degree(v) != 4 {
			t.Fatalf("torus degree(%d) = %d, want 4", v, g.G.Degree(v))
		}
	}
}

func TestShortestPath(t *testing.T) {
	g := Grid(4, 4)
	p, ok := g.ShortestPath(0, 15)
	if !ok || len(p) != 7 {
		t.Fatalf("path 0→15 = %v (len %d), want 7 vertices", p, len(p))
	}
	if p[0] != 0 || p[len(p)-1] != 15 {
		t.Fatal("endpoints wrong")
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.G.HasEdge(p[i], p[i+1]) {
			t.Fatalf("path uses non-edge {%d,%d}", p[i], p[i+1])
		}
	}
	if p2, ok := g.ShortestPath(3, 3); !ok || len(p2) != 1 {
		t.Error("trivial path")
	}
}

func TestRoutedCycleVerify(t *testing.T) {
	g := Grid(3, 3)
	face := FaceCycle(3, 3, 0, 0, false)
	if err := face.Verify(g); err != nil {
		t.Fatalf("unit face must verify: %v", err)
	}
	// Break edge-disjointness: route two requests over the same edge.
	bad := RoutedCycle{
		Demand: []int{0, 1, 4},
		Paths:  [][]int{{0, 1}, {1, 0, 3, 4}, {4, 3, 0}},
	}
	if err := bad.Verify(g); err == nil {
		t.Fatal("edge reuse must fail the generalised DRC")
	}
	short := RoutedCycle{Demand: []int{0, 1}, Paths: [][]int{{0, 1}, {1, 0}}}
	if err := short.Verify(g); err == nil {
		t.Fatal("2-cycles rejected")
	}
	reuse := RoutedCycle{
		Demand: []int{0, 1, 4},
		Paths:  [][]int{{0, 1}, {1, 4}, {4, 1, 0}}, // edge {1,4} appears twice
	}
	if err := reuse.Verify(g); err == nil {
		t.Fatal("edge reuse across paths must be rejected")
	}
}

func TestRoutedCycleRejectsMissingEdge(t *testing.T) {
	g := Grid(3, 3)
	diag := RoutedCycle{
		Demand: []int{0, 1, 4},
		Paths:  [][]int{{0, 1}, {1, 4}, {4, 0}}, // {4,0} is a diagonal: missing
	}
	if err := diag.Verify(g); err == nil {
		t.Fatal("missing edge must be rejected")
	}
}

func TestGridFaceCover(t *testing.T) {
	w, h := 5, 4
	g := Grid(w, h)
	faces := GridFaceCover(w, h)
	if len(faces) != (w-1)*(h-1) {
		t.Fatalf("%d faces, want %d", len(faces), (w-1)*(h-1))
	}
	for _, f := range faces {
		if err := f.Verify(g); err != nil {
			t.Fatal(err)
		}
	}
	covered := CoveredEdges(faces)
	for _, e := range g.G.Edges() {
		if covered[e] < 1 {
			t.Fatalf("grid edge %v uncovered", e)
		}
	}
}

func TestTorusCheckerboardExactCover(t *testing.T) {
	w, h := 6, 4
	g := Torus(w, h)
	faces := TorusCheckerboardCover(w, h)
	if len(faces) != w*h/2 {
		t.Fatalf("%d faces, want %d", len(faces), w*h/2)
	}
	for _, f := range faces {
		if err := f.Verify(g); err != nil {
			t.Fatal(err)
		}
	}
	covered := CoveredEdges(faces)
	for _, e := range g.G.Edges() {
		if covered[e] != 1 {
			t.Fatalf("torus edge %v covered %d times, want exactly 1", e, covered[e])
		}
	}
	if len(covered) != g.G.M() {
		t.Fatalf("covered %d distinct edges, want %d", len(covered), g.G.M())
	}
}

func TestTorusCheckerboardOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd torus: want panic")
		}
	}()
	TorusCheckerboardCover(5, 4)
}

func TestBuildTree(t *testing.T) {
	tr, err := BuildTree([]RingSpec{{Size: 7, Parent: -1}, {Size: 5, Parent: 0}, {Size: 9, Parent: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Shared gateways: total vertices = 7 + 4 + 8.
	if tr.Vertices != 19 {
		t.Fatalf("vertices = %d, want 19", tr.Vertices)
	}
	if tr.Maps[1][0] != tr.Maps[0][0] || tr.Maps[2][0] != tr.Maps[0][0] {
		t.Fatal("children must share the parent's gateway vertex")
	}
	if _, err := BuildTree([]RingSpec{{Size: 2, Parent: -1}}); err == nil {
		t.Error("ring size 2: want error")
	}
	if _, err := BuildTree([]RingSpec{{Size: 5, Parent: 0}}); err == nil {
		t.Error("root with parent: want error")
	}
	if _, err := BuildTree([]RingSpec{{Size: 5, Parent: -1}, {Size: 5, Parent: 3}}); err == nil {
		t.Error("forward parent reference: want error")
	}
}

func TestPlanIntraRing(t *testing.T) {
	tr, err := BuildTree([]RingSpec{{Size: 5, Parent: -1}, {Size: 7, Parent: 0}})
	if err != nil {
		t.Fatal(err)
	}
	plans, err := tr.PlanIntraRing(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if TotalCycles(plans) != cover.Rho(5)+cover.Rho(7) {
		t.Fatalf("total cycles %d, want ρ(5)+ρ(7) = %d",
			TotalCycles(plans), cover.Rho(5)+cover.Rho(7))
	}
	if RhoTree(tr.Specs) != cover.Rho(5)+cover.Rho(7) {
		t.Fatal("RhoTree mismatch")
	}
	// Global ids must be in range and cycles must have ≥3 vertices.
	for _, p := range plans {
		for _, cyc := range p.Global {
			if len(cyc) < 3 {
				t.Fatal("short cycle in plan")
			}
			for _, v := range cyc {
				if v < 0 || v >= tr.Vertices {
					t.Fatalf("global id %d out of range", v)
				}
			}
		}
	}
	// The two rings must not share non-gateway vertices.
	seen := map[int]int{}
	for ringIdx, m := range tr.Maps {
		for local, v := range m {
			if prev, ok := seen[v]; ok && !(local == 0 && ringIdx > 0) {
				t.Fatalf("vertex %d appears in rings %d and %d unexpectedly", v, prev, ringIdx)
			}
			seen[v] = ringIdx
		}
	}
}
