package graph

import (
	"math"
	"testing"
)

func TestNewEdgeCanonical(t *testing.T) {
	if e := NewEdge(5, 2); e.U != 2 || e.V != 5 {
		t.Errorf("NewEdge(5,2) = %v, want {2,5}", e)
	}
	if e := NewEdge(1, 3); e != NewEdge(3, 1) {
		t.Error("NewEdge must canonicalise order")
	}
}

func TestNewEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEdge(4,4): want panic")
		}
	}()
	NewEdge(4, 4)
}

func TestCompleteGraphCounts(t *testing.T) {
	for _, n := range []int{3, 4, 7, 10} {
		g := Complete(n)
		want := n * (n - 1) / 2
		if g.M() != want {
			t.Errorf("K%d: M = %d, want %d", n, g.M(), want)
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != n-1 {
				t.Errorf("K%d: deg(%d) = %d, want %d", n, v, g.Degree(v), n-1)
			}
		}
	}
}

func TestLambdaComplete(t *testing.T) {
	g := LambdaComplete(5, 3)
	if g.M() != 3*10 {
		t.Errorf("3K5: M = %d, want 30", g.M())
	}
	if g.Multiplicity(1, 4) != 3 {
		t.Errorf("3K5: mult(1,4) = %d, want 3", g.Multiplicity(1, 4))
	}
	if g.DistinctEdges() != 10 {
		t.Errorf("3K5: distinct = %d, want 10", g.DistinctEdges())
	}
	// The one-pass fill builds exactly the graph pair-by-pair insertion
	// builds: same pairs, degrees and counts.
	for n := 0; n <= 12; n++ {
		for lam := 1; lam <= 3; lam++ {
			want := New(n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					want.AddEdgeMulti(u, v, lam)
				}
			}
			got := LambdaComplete(n, lam)
			if !got.EqualCover(want) {
				t.Fatalf("%dK%d differs from pair-by-pair insertion", lam, n)
			}
			for v := 0; v < n; v++ {
				if got.Degree(v) != want.Degree(v) {
					t.Fatalf("%dK%d: deg(%d) = %d, want %d", lam, n, v, got.Degree(v), want.Degree(v))
				}
			}
			if l, ok := got.UniformMultiplicity(); ok != (n >= 2) || (ok && l != lam) {
				t.Fatalf("%dK%d: UniformMultiplicity = (%d, %v)", lam, n, l, ok)
			}
		}
	}
	if math.MaxInt > math.MaxInt32 {
		over := int64(math.MaxInt32) + 1
		defer func() {
			if r := recover(); r != "graph: multiplicity of {0,1} overflows int32" {
				t.Fatalf("LambdaComplete(3, MaxInt32+1) panicked with %v", r)
			}
		}()
		LambdaComplete(3, int(over))
	}
}

func TestCycleGraph(t *testing.T) {
	g := Cycle(6)
	if g.M() != 6 {
		t.Errorf("C6: M = %d, want 6", g.M())
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("C6: deg(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if !g.HasEdge(5, 0) {
		t.Error("C6 must wrap: edge {5,0}")
	}
}

func TestAddRemove(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if g.Multiplicity(0, 1) != 2 || g.M() != 2 {
		t.Fatalf("after two adds: mult=%d m=%d", g.Multiplicity(0, 1), g.M())
	}
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0): want true")
	}
	if g.Multiplicity(0, 1) != 1 {
		t.Fatalf("mult = %d, want 1", g.Multiplicity(0, 1))
	}
	if !g.RemoveEdge(0, 1) || g.RemoveEdge(0, 1) {
		t.Fatal("second remove must succeed, third must fail")
	}
	if g.M() != 0 || g.Degree(0) != 0 || g.Degree(1) != 0 {
		t.Fatal("graph must be empty after removals")
	}
	if g.RemoveEdge(2, 2) {
		t.Fatal("RemoveEdge on self pair must be false")
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := New(5)
	g.AddEdge(3, 1)
	g.AddEdge(0, 4)
	g.AddEdge(0, 2)
	es := g.Edges()
	want := []Edge{{0, 2}, {0, 4}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", es, want)
		}
	}
}

func TestNeighbors(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(1, 3)
	ns := g.Neighbors(2)
	if len(ns) != 2 || ns[0] != 0 || ns[1] != 4 {
		t.Errorf("Neighbors(2) = %v, want [0 4]", ns)
	}
	if len(g.Neighbors(0)) != 1 {
		t.Errorf("Neighbors(0) = %v", g.Neighbors(0))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Complete(4)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("clone mutation leaked into original")
	}
	if c.M() != g.M()-1 {
		t.Errorf("clone M = %d, want %d", c.M(), g.M()-1)
	}
}

func TestCheckPanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Degree(7): want panic")
		}
	}()
	g.Degree(7)
}

// TestNilGraphReadAccessors pins the nil-safety contract stated on N:
// every read accessor answers emptiness on a nil graph — the demand of
// a zero-value instance — instead of panicking.
func TestNilGraphReadAccessors(t *testing.T) {
	var g *Graph
	if g.N() != 0 || g.M() != 0 || g.DistinctEdges() != 0 {
		t.Error("nil graph sizes must be 0")
	}
	if g.Degree(0) != 0 || g.Multiplicity(0, 1) != 0 || g.HasEdge(0, 1) {
		t.Error("nil graph membership checks must report emptiness")
	}
	if g.Edges() != nil || g.Neighbors(0) != nil {
		t.Error("nil graph enumerations must be nil")
	}
}
