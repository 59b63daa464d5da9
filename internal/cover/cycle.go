// Package cover implements the paper's central object: coverings of a
// logical graph by cycles that satisfy the disjoint routing constraint
// (DRC) on a physical ring.
//
// # The DRC structure theorem
//
// The paper requires, for each cycle I_k of the covering, an assignment of
// ring paths to I_k's requests that is pairwise edge-disjoint. This package
// builds on the following reconstruction of the paper's (omitted)
// structural argument, proved here because everything else rests on it:
//
// Let I_k be a cycle a_1 — a_2 — … — a_k — a_1 and let P_i be the ring path
// routing request {a_i, a_i+1}, all P_i pairwise edge-disjoint. The
// concatenation P_1 P_2 … P_k is a closed walk that uses every ring edge at
// most once, so the union of the P_i is a non-empty subgraph of C_n with
// every degree even. The only such subgraph is C_n itself. The walk is
// therefore an Eulerian circuit of the ring — it goes around exactly once —
// and so it visits a_1, …, a_k in ring cyclic order (one of the two
// directions). Conversely, any set S of at least three vertices, visited in
// ring order, is routed edge-disjointly by assigning each cyclically
// consecutive pair the clockwise arc between its members: those arcs
// partition the ring.
//
// Consequences used throughout:
//
//   - a DRC-routable cycle is exactly a vertex set S, |S| ≥ 3, traversed in
//     ring order (Cycle below stores the canonical sorted form);
//   - the pairs covered by the cycle are exactly the cyclically consecutive
//     pairs of S;
//   - the routing of a cycle consumes arcs whose lengths sum to exactly n.
//
// The converse direction (arbitrary vertex orders that are NOT ring orders
// admit no disjoint routing) is checked exhaustively in package routing and
// exercised on the paper's own K_4/C_4 example.
package cover

import (
	"fmt"
	"strings"

	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// MinCycleLen is the smallest admissible cycle (a triangle).
const MinCycleLen = 3

// Cycle is a DRC-routable cycle on a ring: a set of at least three ring
// vertices, stored sorted by ring position. By the structure theorem in
// the package comment, traversing the set in ring order is the unique
// edge-disjoint routing shape, so the set determines the cycle.
type Cycle struct {
	verts []int // sorted ascending, distinct, all in [0, n)
}

// NewCycle builds the DRC cycle on the given vertex set. Vertices are
// normalised to [0, n); duplicates are rejected, as are sets smaller than
// MinCycleLen.
func NewCycle(r ring.Ring, verts ...int) (Cycle, error) {
	return newCycleIn(r, make([]int, len(verts)), verts)
}

// newCycleIn is NewCycle storing the cycle's vertices in vs, which has
// the length of verts.
func newCycleIn(r ring.Ring, vs, verts []int) (Cycle, error) {
	for i, v := range verts {
		vs[i] = r.Norm(v)
	}
	ring.SortByRingOrder(vs)
	for i := 1; i < len(vs); i++ {
		if vs[i] == vs[i-1] {
			return Cycle{}, duplicateError(r, verts)
		}
	}
	if len(vs) < MinCycleLen {
		return Cycle{}, fmt.Errorf("cover: cycle needs at least %d distinct vertices, got %d", MinCycleLen, len(vs))
	}
	return Cycle{verts: vs}, nil
}

// duplicateError names the first vertex of verts, in order and
// normalised, that repeats an earlier one. Only the error path pays for
// its map.
func duplicateError(r ring.Ring, verts []int) error {
	seen := make(map[int]bool, len(verts))
	for _, v := range verts {
		nv := r.Norm(v)
		if seen[nv] {
			return fmt.Errorf("cover: duplicate vertex %d in cycle %v", nv, verts)
		}
		seen[nv] = true
	}
	panic("cover: duplicateError on a cycle without a repeated vertex")
}

// CycleFromSortedVerts wraps an already-canonical vertex slice — sorted
// by ring order, distinct, in range — as a Cycle without copying or
// validating it. It exists for scratch-backed constructors (DeltaRepair)
// that materialize results into reusable buffers on a hot path; the
// cycle aliases verts, so the caller owns the lifetime and must
// CloneDetached the covering before sharing it. Every consumer of such
// coverings re-verifies them, so a malformed input fails verification
// rather than corrupting downstream state.
func CycleFromSortedVerts(verts []int) Cycle { return Cycle{verts: verts} }

// MustCycle is NewCycle that panics on error; for tests and constructions
// whose inputs are correct by design.
func MustCycle(r ring.Ring, verts ...int) Cycle {
	c, err := NewCycle(r, verts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of vertices (equal to the number of covered
// pairs).
func (c Cycle) Len() int { return len(c.verts) }

// IsTriangle reports whether the cycle is a C3.
func (c Cycle) IsTriangle() bool { return len(c.verts) == 3 }

// IsQuad reports whether the cycle is a C4.
func (c Cycle) IsQuad() bool { return len(c.verts) == 4 }

// Vertices returns the vertex set in ring order. The caller must not
// modify the returned slice.
func (c Cycle) Vertices() []int { return c.verts }

// Contains reports whether v is on the cycle.
func (c Cycle) Contains(v int) bool {
	for _, w := range c.verts {
		if w == v {
			return true
		}
	}
	return false
}

// Pairs returns the covered request pairs: the cyclically consecutive
// pairs of the vertex set, in traversal order.
func (c Cycle) Pairs() []graph.Edge {
	k := len(c.verts)
	ps := make([]graph.Edge, 0, k)
	for i := 0; i < k; i++ {
		ps = append(ps, graph.NewEdge(c.verts[i], c.verts[(i+1)%k]))
	}
	return ps
}

// CoversPair reports whether the cycle covers the request {u, v}: both
// endpoints on the cycle and cyclically consecutive in it.
func (c Cycle) CoversPair(u, v int) bool {
	k := len(c.verts)
	for i := 0; i < k; i++ {
		a, b := c.verts[i], c.verts[(i+1)%k]
		if (a == u && b == v) || (a == v && b == u) {
			return true
		}
	}
	return false
}

// Gaps returns the clockwise arc lengths between consecutive vertices, in
// traversal order. They always sum to n (the routing wraps the ring
// exactly once).
func (c Cycle) Gaps(r ring.Ring) []int {
	k := len(c.verts)
	gs := make([]int, 0, k)
	for i := 0; i < k; i++ {
		gs = append(gs, r.Gap(c.verts[i], c.verts[(i+1)%k]))
	}
	return gs
}

// Arcs returns the clockwise arcs assigned to each covered pair by the
// canonical routing; they partition the ring's links.
func (c Cycle) Arcs(r ring.Ring) []ring.Arc {
	k := len(c.verts)
	as := make([]ring.Arc, 0, k)
	for i := 0; i < k; i++ {
		as = append(as, r.ArcBetween(c.verts[i], c.verts[(i+1)%k]))
	}
	return as
}

// UsesShortArcsOnly reports whether the canonical routing serves every
// covered pair along its shorter arc (ties at n/2 allowed). Optimal
// coverings for odd n must have this property on every cycle (the lower
// bound is tight only then); it is reported per-cycle in experiment output.
func (c Cycle) UsesShortArcsOnly(r ring.Ring) bool {
	for _, g := range c.Gaps(r) {
		if 2*g > r.N() {
			return false
		}
	}
	return true
}

// Equal reports whether two cycles have the same vertex set.
func (c Cycle) Equal(d Cycle) bool {
	if len(c.verts) != len(d.verts) {
		return false
	}
	for i := range c.verts {
		if c.verts[i] != d.verts[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for the vertex set, usable as a map
// key for deduplication.
func (c Cycle) Key() string {
	var b strings.Builder
	for i, v := range c.verts {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// String renders the cycle in the paper's tuple notation, e.g. (0,2,5).
func (c Cycle) String() string { return "(" + c.Key() + ")" }
