// Package ring models the physical topology of the paper: an undirected
// cycle C_n whose vertices are optical switches and whose edges are
// fibre-optic links.
//
// Vertices are the integers 0..n-1 in ring order. The clockwise arc from u
// to v is the sequence of ring edges u→u+1→…→v (indices mod n). Every
// request routed on the ring occupies one of the two arcs between its
// endpoints; the arc abstraction and its disjointness arithmetic are the
// substrate for the disjoint routing constraint (DRC) in package cover.
package ring

import (
	"errors"
	"fmt"
	"slices"
)

// MinVertices is the smallest ring size the library accepts. A ring with
// fewer than three vertices has no cycle structure (C_1 and C_2 degenerate
// to a point and a doubled edge).
const MinVertices = 3

// Ring is the physical cycle C_n. The zero value is invalid; use New.
type Ring struct {
	n int
}

// New returns the ring C_n. It returns an error if n < MinVertices.
func New(n int) (Ring, error) {
	if n < MinVertices {
		return Ring{}, fmt.Errorf("ring: n = %d below minimum %d", n, MinVertices)
	}
	return Ring{n: n}, nil
}

// MustNew is New for known-good sizes; it panics on error. It is intended
// for tests and package-internal construction from validated input.
func MustNew(n int) Ring {
	r, err := New(n)
	if err != nil {
		panic(err)
	}
	return r
}

// N returns the number of vertices (equivalently, the number of links).
func (r Ring) N() int { return r.n }

// Valid reports whether v is a vertex of the ring.
func (r Ring) Valid(v int) bool { return 0 <= v && v < r.n }

// Norm reduces an arbitrary integer to the canonical vertex label in
// [0, n).
func (r Ring) Norm(v int) int {
	v %= r.n
	if v < 0 {
		v += r.n
	}
	return v
}

// Next returns the clockwise neighbour of v.
func (r Ring) Next(v int) int { return r.Norm(v + 1) }

// Prev returns the counter-clockwise neighbour of v.
func (r Ring) Prev(v int) int { return r.Norm(v - 1) }

// Gap returns the clockwise distance from u to v: the number of ring edges
// on the arc u→v. Gap(u,u) is 0.
func (r Ring) Gap(u, v int) int { return r.Norm(v - u) }

// Dist returns the graph distance between u and v on the ring: the shorter
// of the two arc lengths.
func (r Ring) Dist(u, v int) int {
	g := r.Gap(u, v)
	return min(g, r.n-g)
}

// IsDiameter reports whether {u,v} is a diametral pair: only possible when
// n is even, with the two arcs of equal length n/2.
func (r Ring) IsDiameter(u, v int) bool {
	return r.n%2 == 0 && r.Gap(u, v) == r.n/2
}

// Antipode returns the vertex opposite v. It returns an error when n is
// odd, in which case no vertex is equidistant both ways.
func (r Ring) Antipode(v int) (int, error) {
	if r.n%2 != 0 {
		return 0, errors.New("ring: antipode undefined for odd n")
	}
	return r.Norm(v + r.n/2), nil
}

// Link identifies the undirected ring edge {v, v+1} by its lower endpoint
// v in ring order. Links are the failure units in the survivability model.
type Link int

// Links returns the number of links, which equals N for a cycle.
func (r Ring) Links() int { return r.n }

// LinkBetween returns the link joining two adjacent vertices. ok is false
// if u and v are not ring-adjacent.
func (r Ring) LinkBetween(u, v int) (Link, bool) {
	switch {
	case r.Gap(u, v) == 1:
		return Link(u), true
	case r.Gap(v, u) == 1:
		return Link(v), true
	default:
		return 0, false
	}
}

// Endpoints returns the two vertices joined by link l.
func (r Ring) Endpoints(l Link) (int, int) {
	u := r.Norm(int(l))
	return u, r.Next(u)
}

// Arc is the clockwise arc From→To. An arc with From == To is empty: arcs
// of length n (the full ring) are not representable, matching their absence
// from any simple routing.
type Arc struct {
	From, To int
}

// ArcBetween returns the clockwise arc from u to v on r, normalising the
// endpoints.
func (r Ring) ArcBetween(u, v int) Arc {
	return Arc{From: r.Norm(u), To: r.Norm(v)}
}

// Len returns the number of links on the arc.
func (a Arc) Len(r Ring) int { return r.Gap(a.From, a.To) }

// IsEmpty reports whether the arc contains no links.
func (a Arc) IsEmpty() bool { return a.From == a.To }

// Contains reports whether link l lies on the arc.
func (a Arc) Contains(r Ring, l Link) bool {
	if a.IsEmpty() {
		return false
	}
	// Link l occupies positions [l, l+1]; it is on the arc iff the offset
	// of its lower endpoint from a.From is below the arc length.
	return r.Gap(a.From, int(l)) < a.Len(r)
}

// ContainsVertex reports whether v lies strictly inside the arc (excluding
// both endpoints).
func (a Arc) ContainsVertex(r Ring, v int) bool {
	if a.IsEmpty() {
		return false
	}
	g := r.Gap(a.From, v)
	return g > 0 && g < a.Len(r)
}

// Links returns the links on the arc in clockwise order.
func (a Arc) Links(r Ring) []Link {
	n := a.Len(r)
	ls := make([]Link, 0, n)
	for i := 0; i < n; i++ {
		ls = append(ls, Link(r.Norm(a.From+i)))
	}
	return ls
}

// Vertices returns the vertices on the arc in clockwise order, including
// both endpoints. An empty arc yields just its single endpoint.
func (a Arc) Vertices(r Ring) []int {
	n := a.Len(r)
	vs := make([]int, 0, n+1)
	for i := 0; i <= n; i++ {
		vs = append(vs, r.Norm(a.From+i))
	}
	return vs
}

// Disjoint reports whether two arcs share no link.
func (a Arc) Disjoint(r Ring, b Arc) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return true
	}
	// b's start must lie at or beyond a's end (in a-relative coordinates),
	// and a must not wrap past b's start... The robust check for small n is
	// link-set intersection; arcs here are at most n links, and this runs
	// in the verifier, not the constructor hot path.
	for _, l := range a.Links(r) {
		if b.Contains(r, l) {
			return false
		}
	}
	return true
}

// String renders the arc for diagnostics.
func (a Arc) String() string { return fmt.Sprintf("arc(%d→%d)", a.From, a.To) }

// SortByRingOrder sorts vs in increasing ring position. It is a
// convenience for canonicalising cycle vertex sets.
func SortByRingOrder(vs []int) {
	// slices.Sort insertion-sorts the tiny sets the constructors pass
	// (cycles of length 3-6) and stays O(k log k) on a long set decoded
	// from a /verify body.
	slices.Sort(vs)
}
