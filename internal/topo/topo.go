// Package topo exercises the paper's future-work section: cycle coverings
// on network topologies other than a single ring — grids, tori and trees
// of rings. The paper only announces these directions; this package
// provides the machinery a follow-up would start from:
//
//   - general topologies as undirected graphs with BFS routing;
//   - routed cycles (a demand cycle plus one explicit physical path per
//     request) with an edge-disjointness verifier — the DRC generalised
//     beyond rings, where the ring-order shortcut no longer applies;
//   - face coverings for grid and torus adjacency traffic;
//   - trees of rings, composed from per-ring optimal DRC coverings.
package topo

import (
	"context"
	"fmt"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
)

// Topology is a physical network: an undirected graph with helpers for
// routing.
type Topology struct {
	Name string
	G    *graph.Graph
}

// Grid returns the w×h grid graph; vertex (x, y) has id y·w + x.
func Grid(w, h int) Topology {
	if w < 2 || h < 2 {
		panic("topo: grid needs w, h >= 2")
	}
	g := graph.New(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				g.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return Topology{Name: fmt.Sprintf("grid %dx%d", w, h), G: g}
}

// Torus returns the w×h torus (grid with wraparound rows and columns).
func Torus(w, h int) Topology {
	if w < 3 || h < 3 {
		panic("topo: torus needs w, h >= 3")
	}
	g := graph.New(w * h)
	id := func(x, y int) int { return (y%h)*w + (x % w) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.AddEdge(id(x, y), id(x+1, y))
			g.AddEdge(id(x, y), id(x, y+1))
		}
	}
	return Topology{Name: fmt.Sprintf("torus %dx%d", w, h), G: g}
}

// ShortestPath returns a BFS shortest path between u and v as a vertex
// sequence (inclusive); ok is false if disconnected.
func (t Topology) ShortestPath(u, v int) ([]int, bool) {
	if u == v {
		return []int{u}, true
	}
	prev := make([]int, t.G.N())
	for i := range prev {
		prev[i] = -1
	}
	prev[u] = u
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range t.G.Neighbors(x) {
			if prev[y] == -1 {
				prev[y] = x
				if y == v {
					var path []int
					for c := v; c != u; c = prev[c] {
						path = append(path, c)
					}
					path = append(path, u)
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path, true
				}
				queue = append(queue, y)
			}
		}
	}
	return nil, false
}

// RoutedCycle is a demand cycle on an arbitrary topology together with an
// explicit physical path for each request — the general form of the
// paper's subnetworks. On a ring the canonical routing is forced; here it
// must be supplied and checked.
type RoutedCycle struct {
	Demand []int   // cyclic vertex sequence, consecutive pairs are requests
	Paths  [][]int // Paths[i] routes Demand[i] — Demand[i+1 mod k]
}

// Verify checks the structural validity of the routed cycle and the
// generalised DRC: paths connect the right endpoints, use existing edges,
// and are pairwise edge-disjoint.
func (rc RoutedCycle) Verify(t Topology) error {
	k := len(rc.Demand)
	if k < 3 {
		return fmt.Errorf("topo: demand cycle shorter than 3")
	}
	if len(rc.Paths) != k {
		return fmt.Errorf("topo: %d paths for %d requests", len(rc.Paths), k)
	}
	used := make(map[graph.Edge]bool)
	for i := 0; i < k; i++ {
		u, v := rc.Demand[i], rc.Demand[(i+1)%k]
		p := rc.Paths[i]
		if len(p) < 2 || p[0] != u || p[len(p)-1] != v {
			return fmt.Errorf("topo: path %d does not join %d-%d", i, u, v)
		}
		for j := 0; j+1 < len(p); j++ {
			if !t.G.HasEdge(p[j], p[j+1]) {
				return fmt.Errorf("topo: path %d uses missing edge {%d,%d}", i, p[j], p[j+1])
			}
			e := graph.NewEdge(p[j], p[j+1])
			if used[e] {
				return fmt.Errorf("topo: edge %v used twice — DRC violated", e)
			}
			used[e] = true
		}
	}
	return nil
}

// FaceCycle returns the unit-square routed cycle with top-left grid
// coordinate (x, y): demands along the four sides, each routed on its own
// edge (trivially edge-disjoint).
func FaceCycle(w, h, x, y int, torus bool) RoutedCycle {
	wrap := func(xx, yy int) int {
		if torus {
			return (yy%h)*w + (xx % w)
		}
		return yy*w + xx
	}
	a := wrap(x, y)
	b := wrap(x+1, y)
	c := wrap(x+1, y+1)
	d := wrap(x, y+1)
	return RoutedCycle{
		Demand: []int{a, b, c, d},
		Paths:  [][]int{{a, b}, {b, c}, {c, d}, {d, a}},
	}
}

// GridFaceCover covers the full edge set of the w×h grid with unit faces
// (adjacency traffic, the natural mesh analogue of the ring's neighbour
// instance). Every face is DRC-valid; edges interior to the mesh are
// covered twice.
func GridFaceCover(w, h int) []RoutedCycle {
	var out []RoutedCycle
	for y := 0; y+1 < h; y++ {
		for x := 0; x+1 < w; x++ {
			out = append(out, FaceCycle(w, h, x, y, false))
		}
	}
	return out
}

// TorusCheckerboardCover covers the edge set of an even×even torus with
// unit faces of one checkerboard colour — each torus edge covered exactly
// once, the exact analogue of the odd-ring partition result. It panics
// for odd dimensions (the checkerboard argument needs even w and h).
func TorusCheckerboardCover(w, h int) []RoutedCycle {
	if w%2 != 0 || h%2 != 0 {
		panic("topo: checkerboard cover needs even w and h")
	}
	var out []RoutedCycle
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if (x+y)%2 == 0 {
				out = append(out, FaceCycle(w, h, x, y, true))
			}
		}
	}
	return out
}

// CoveredEdges returns the multiset of edges covered by routed cycles'
// demands.
func CoveredEdges(cycles []RoutedCycle) map[graph.Edge]int {
	m := make(map[graph.Edge]int)
	for _, rc := range cycles {
		k := len(rc.Demand)
		for i := 0; i < k; i++ {
			m[graph.NewEdge(rc.Demand[i], rc.Demand[(i+1)%k])]++
		}
	}
	return m
}

// RingSpec describes one ring of a tree of rings: its size and the
// parent ring it attaches to (sharing one gateway vertex). Parent -1
// denotes the root.
type RingSpec struct {
	Size   int
	Parent int
}

// TreeOfRings is the paper's named extension topology: rings glued along
// a tree, consecutive rings sharing a single gateway vertex.
type TreeOfRings struct {
	Specs    []RingSpec
	Vertices int
	// Local→global vertex maps, one per ring. Gateways share ids.
	Maps [][]int
}

// BuildTree lays out the rings and assigns global vertex ids. Ring i
// attaches to its parent at the parent's vertex of local index 0... the
// child's local 0 IS the gateway (shared id).
func BuildTree(specs []RingSpec) (*TreeOfRings, error) {
	tr := &TreeOfRings{Specs: specs}
	for i, sp := range specs {
		if sp.Size < 3 {
			return nil, fmt.Errorf("topo: ring %d size %d < 3", i, sp.Size)
		}
		if sp.Parent >= i || (i == 0) != (sp.Parent < 0) {
			return nil, fmt.Errorf("topo: ring %d has invalid parent %d", i, sp.Parent)
		}
		m := make([]int, sp.Size)
		start := 0
		if i > 0 {
			// Gateway: parent's local vertex 0 — arbitrary but fixed.
			m[0] = tr.Maps[sp.Parent][0]
			start = 1
		}
		for j := start; j < sp.Size; j++ {
			m[j] = tr.Vertices
			tr.Vertices++
		}
		tr.Maps = append(tr.Maps, m)
	}
	return tr, nil
}

// RingPlan is a per-ring DRC covering translated to global vertex ids.
type RingPlan struct {
	Ring   int
	Size   int
	Cycles int
	Global [][]int // cycle vertex sets in global ids
}

// PlanIntraRing covers the all-to-all instance of every ring with the
// optimal (or best known) single-ring construction, under ctx. Because
// distinct rings share no fibre, the per-ring DRC coverings compose into
// a valid design for the whole tree; the returned plans carry the global
// ids.
func (tr *TreeOfRings) PlanIntraRing(ctx context.Context) ([]RingPlan, error) {
	var plans []RingPlan
	for i, sp := range tr.Specs {
		res, err := construct.AllToAllCtx(ctx, sp.Size)
		if err != nil {
			return nil, fmt.Errorf("topo: ring %d: %w", i, err)
		}
		plan := RingPlan{Ring: i, Size: sp.Size, Cycles: res.Covering.Size()}
		for _, c := range res.Covering.Cycles {
			gl := make([]int, 0, c.Len())
			for _, v := range c.Vertices() {
				gl = append(gl, tr.Maps[i][v])
			}
			plan.Global = append(plan.Global, gl)
		}
		plans = append(plans, plan)
	}
	return plans, nil
}

// TotalCycles sums the per-ring covering sizes — the tree-of-rings design
// cost under the paper's objective.
func TotalCycles(plans []RingPlan) int {
	t := 0
	for _, p := range plans {
		t += p.Cycles
	}
	return t
}

// RhoTree returns the intra-ring optimum implied by the single-ring
// theorems: Σ ρ(n_i).
func RhoTree(specs []RingSpec) int {
	t := 0
	for _, sp := range specs {
		t += cover.Rho(sp.Size)
	}
	return t
}
