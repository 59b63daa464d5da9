package cover

import (
	"fmt"
	"sort"

	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// Covering is a family of DRC cycles over one ring, intended to cover a
// logical graph. Cycles may overlap: the paper's objects are coverings,
// not decompositions (though optimal odd-n coverings happen to be
// partitions).
type Covering struct {
	Ring   ring.Ring
	Cycles []Cycle
}

// NewCovering returns an empty covering over r.
func NewCovering(r ring.Ring) *Covering {
	return &Covering{Ring: r}
}

// Add appends cycles to the covering.
func (cv *Covering) Add(cs ...Cycle) { cv.Cycles = append(cv.Cycles, cs...) }

// Size returns the number of cycles — the paper's objective function.
func (cv *Covering) Size() int { return len(cv.Cycles) }

// TotalVertices returns the sum of cycle lengths — the objective of
// Eilam–Moran–Zaks [3] / Gerstel–Lin–Sasaki [4], reported for comparison
// experiments.
func (cv *Covering) TotalVertices() int {
	t := 0
	for _, c := range cv.Cycles {
		t += c.Len()
	}
	return t
}

// Slots returns the total number of covered pair-slots (with
// multiplicity); equal to TotalVertices since a cycle of length k covers k
// pairs.
func (cv *Covering) Slots() int { return cv.TotalVertices() }

// Composition returns how many cycles of each length the covering uses,
// e.g. {3: p, 4: p(p-1)/2} for the Theorem 1 construction.
func (cv *Covering) Composition() map[int]int {
	comp := make(map[int]int)
	for _, c := range cv.Cycles {
		comp[c.Len()]++
	}
	return comp
}

// NumTriangles returns the number of C3 cycles.
func (cv *Covering) NumTriangles() int { return cv.Composition()[3] }

// NumQuads returns the number of C4 cycles.
func (cv *Covering) NumQuads() int { return cv.Composition()[4] }

// CoverageCounts returns, for each pair covered at least once, how many
// cycle slots cover it.
func (cv *Covering) CoverageCounts() map[graph.Edge]int {
	counts := make(map[graph.Edge]int)
	for _, c := range cv.Cycles {
		for _, p := range c.Pairs() {
			counts[p]++
		}
	}
	return counts
}

// DuplicateSlots returns the number of slots in excess of one per distinct
// covered pair — the covering's slack. Optimal odd-n coverings have zero
// slack; the paper's even-n coverings have positive slack.
func (cv *Covering) DuplicateSlots() int {
	d := 0
	//cyclecover:nondet order-free fold: commutative sum of per-pair slack
	for _, k := range cv.CoverageCounts() {
		d += k - 1
	}
	return d
}

// TallyCoverage adds one edge per covered pair-slot of the covering into
// g — the dense equivalent of CoverageCounts, shared by the verifier
// (which passes its reusable scratch graph), Covers/Uncovered and the
// redundancy optimiser. g must already span the vertices of interest;
// pairs with an endpoint outside g are skipped rather than counted:
// such a slot can never serve a demand edge, so cycles built against
// the wrong ring stay a descriptive verification error, never a panic.
func (cv *Covering) TallyCoverage(g *graph.Graph) {
	n := g.N()
	for _, c := range cv.Cycles {
		verts := c.Vertices()
		k := len(verts)
		for i := 0; i < k; i++ {
			u, v := verts[i], verts[(i+1)%k]
			if u < 0 || v < 0 || u >= n || v >= n {
				continue
			}
			g.AddEdge(u, v)
		}
	}
}

// coverageGraph tallies every covered pair-slot into a fresh dense graph
// on the ring's vertices: Mult(u, v) is the number of cycle slots
// covering the pair. Iterating it (or the demand) is deterministic by
// construction.
func (cv *Covering) coverageGraph() *graph.Graph {
	g := graph.New(cv.Ring.N())
	cv.TallyCoverage(g)
	return g
}

// coverageShortfall reports the first demand pair whose tallied coverage
// falls below its multiplicity, in deterministic (ascending
// lexicographic) order — the shared scan behind Covers and
// Verifier.Verify. The demand must already be known to fit counts.
func coverageShortfall(counts, demand *graph.Graph) error {
	var err error
	demand.ForEachEdge(func(u, v, need int) bool {
		if got := counts.Mult(u, v); got < need {
			err = fmt.Errorf("cover: pair %v covered %d times, need %d", graph.Edge{U: u, V: v}, got, need)
			return false
		}
		return true
	})
	return err
}

// Covers checks that every edge of the demand graph is covered by at least
// its multiplicity (so a covering of λK_n serves each pair λ times). It
// returns a descriptive error naming the first failure in deterministic
// (ascending lexicographic) order, or nil.
func (cv *Covering) Covers(demand *graph.Graph) error {
	if demand.N() > cv.Ring.N() {
		return fmt.Errorf("cover: demand graph on %d vertices exceeds ring size %d", demand.N(), cv.Ring.N())
	}
	return coverageShortfall(cv.coverageGraph(), demand)
}

// Uncovered returns the demand edges (distinct pairs) whose coverage is
// below their multiplicity, in deterministic order, together with the
// shortfall.
func (cv *Covering) Uncovered(demand *graph.Graph) []graph.Edge {
	counts := cv.coverageGraph()
	var missing []graph.Edge
	demand.ForEachEdge(func(u, v, need int) bool {
		// A demand vertex beyond the ring can never be covered.
		if v >= counts.N() || counts.Mult(u, v) < need {
			missing = append(missing, graph.Edge{U: u, V: v})
		}
		return true
	})
	return missing
}

// Clone returns a deep-enough copy (cycles are immutable values).
func (cv *Covering) Clone() *Covering {
	out := NewCovering(cv.Ring)
	out.Cycles = append([]Cycle(nil), cv.Cycles...)
	return out
}

// CloneDetached returns a deep copy whose cycles own fresh vertex
// storage. Clone is sufficient for coverings built from immutable cycles
// (NewCycle copies its input); a covering over buffers someone else owns
// (CycleFromSortedVerts), or one whose cycles share vertex arrays with
// another covering (a delta patch and its parent), is detached before
// it is admitted to a cache.
func (cv *Covering) CloneDetached() *Covering {
	out := NewCovering(cv.Ring)
	out.Cycles = make([]Cycle, len(cv.Cycles))
	for i, c := range cv.Cycles {
		out.Cycles[i] = Cycle{verts: append([]int(nil), c.verts...)}
	}
	return out
}

// Dedup removes cycles with identical vertex sets, keeping first
// occurrences and preserving order.
func (cv *Covering) Dedup() {
	seen := make(map[string]bool, len(cv.Cycles))
	kept := cv.Cycles[:0]
	for _, c := range cv.Cycles {
		k := c.Key()
		if !seen[k] {
			seen[k] = true
			kept = append(kept, c)
		}
	}
	cv.Cycles = kept
}

// Canonicalize sorts cycles by length then lexicographic vertex order, for
// deterministic output and comparison in tests and experiment tables.
func (cv *Covering) Canonicalize() {
	sort.Slice(cv.Cycles, func(i, j int) bool {
		a, b := cv.Cycles[i], cv.Cycles[j]
		if a.Len() != b.Len() {
			return a.Len() < b.Len()
		}
		av, bv := a.Vertices(), b.Vertices()
		for k := range av {
			if av[k] != bv[k] {
				return av[k] < bv[k]
			}
		}
		return false
	})
}

// Stats summarises a covering for experiment output.
type Stats struct {
	N         int // ring size
	Cycles    int // number of cycles (the objective)
	Triangles int
	Quads     int
	Longer    int // cycles of length >= 5
	Slots     int
	Slack     int  // duplicate slots
	ShortOnly bool // every cycle routes every pair along a short arc
}

// Summarize computes Stats for the covering.
func (cv *Covering) Summarize() Stats {
	s := Stats{
		N:         cv.Ring.N(),
		Cycles:    cv.Size(),
		Slots:     cv.Slots(),
		Slack:     cv.DuplicateSlots(),
		ShortOnly: true,
	}
	for _, c := range cv.Cycles {
		switch c.Len() {
		case 3:
			s.Triangles++
		case 4:
			s.Quads++
		default:
			s.Longer++
		}
		if !c.UsesShortArcsOnly(cv.Ring) {
			s.ShortOnly = false
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d cycles=%d (C3=%d C4=%d C5+=%d) slots=%d slack=%d shortOnly=%v",
		s.N, s.Cycles, s.Triangles, s.Quads, s.Longer, s.Slots, s.Slack, s.ShortOnly)
}
