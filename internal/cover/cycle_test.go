package cover

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
)

func TestNewCycleValidation(t *testing.T) {
	r := ring.MustNew(7)
	if _, err := NewCycle(r, 1, 2); err == nil {
		t.Error("2-vertex cycle: want error")
	}
	if _, err := NewCycle(r, 1, 2, 1); err == nil {
		t.Error("duplicate vertex: want error")
	}
	if _, err := NewCycle(r, 1, 8, 3); err == nil {
		t.Error("8 normalises to 1, duplicating: want error")
	}
	c, err := NewCycle(r, 6, 0, 3)
	if err != nil {
		t.Fatalf("NewCycle: %v", err)
	}
	vs := c.Vertices()
	if vs[0] != 0 || vs[1] != 3 || vs[2] != 6 {
		t.Errorf("Vertices = %v, want ring order [0 3 6]", vs)
	}
}

// TestCycleErrorTexts pins the vertex each rejection names: the first
// one, in input order, that repeats an earlier one (NewCycle, after
// normalising) or that is negative or repeats one (WalkCycle).
func TestCycleErrorTexts(t *testing.T) {
	r := ring.MustNew(5)
	for _, tc := range []struct {
		verts []int
		want  string
	}{
		{[]int{1, 2, 1}, "cover: duplicate vertex 1 in cycle [1 2 1]"},
		{[]int{3, 2, 2, 3}, "cover: duplicate vertex 2 in cycle [3 2 2 3]"},
		{[]int{6, 3, 1}, "cover: duplicate vertex 1 in cycle [6 3 1]"},
		{[]int{4, 4}, "cover: duplicate vertex 4 in cycle [4 4]"},
		{[]int{0, 1, 2, 3, 4, 5, 6}, "cover: duplicate vertex 0 in cycle [0 1 2 3 4 5 6]"},
		{[]int{1, 2}, "cover: cycle needs at least 3 distinct vertices, got 2"},
	} {
		if _, err := NewCycle(r, tc.verts...); err == nil || err.Error() != tc.want {
			t.Errorf("NewCycle(%v) = %v, want %q", tc.verts, err, tc.want)
		}
	}
	for _, tc := range []struct {
		verts []int
		want  string
	}{
		{[]int{3, 1, 3, -2}, "cover: duplicate vertex 3 in cycle [3 1 3 -2]"},
		{[]int{3, -1, 3}, "cover: negative vertex -1 in cycle [3 -1 3]"},
		{[]int{2, 5, 5, 2}, "cover: duplicate vertex 5 in cycle [2 5 5 2]"},
		{[]int{0, 1}, "cover: cycle needs at least 3 distinct vertices, got 2"},
	} {
		if _, err := WalkCycle(tc.verts); err == nil || err.Error() != tc.want {
			t.Errorf("WalkCycle(%v) = %v, want %q", tc.verts, err, tc.want)
		}
	}
}

func TestCycleNormalisesLabels(t *testing.T) {
	r := ring.MustNew(5)
	c := MustCycle(r, -1, 5, 7)
	vs := c.Vertices()
	if vs[0] != 0 || vs[1] != 2 || vs[2] != 4 {
		t.Errorf("Vertices = %v, want [0 2 4]", vs)
	}
}

func TestPairsAndCoversPair(t *testing.T) {
	r := ring.MustNew(8)
	c := MustCycle(r, 1, 4, 6, 7)
	pairs := c.Pairs()
	want := []graph.Edge{
		graph.NewEdge(1, 4), graph.NewEdge(4, 6),
		graph.NewEdge(6, 7), graph.NewEdge(1, 7),
	}
	if len(pairs) != len(want) {
		t.Fatalf("Pairs = %v", pairs)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("Pairs = %v, want %v", pairs, want)
		}
	}
	if !c.CoversPair(7, 1) {
		t.Error("CoversPair(7,1): wrap-around pair must be covered")
	}
	if c.CoversPair(1, 6) {
		t.Error("CoversPair(1,6): chord of the cycle, not consecutive")
	}
	if c.CoversPair(1, 5) {
		t.Error("CoversPair(1,5): 5 not on cycle")
	}
}

func TestGapsSumToN(t *testing.T) {
	r := ring.MustNew(9)
	c := MustCycle(r, 0, 2, 5)
	gs := c.Gaps(r)
	if gs[0] != 2 || gs[1] != 3 || gs[2] != 4 {
		t.Errorf("Gaps = %v, want [2 3 4]", gs)
	}
}

func TestGapsSumProperty(t *testing.T) {
	// Whatever vertex set a cycle has, its gaps sum to n: the canonical
	// routing wraps the ring exactly once.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		r := ring.MustNew(n)
		k := 3 + rng.Intn(n-2)
		perm := rng.Perm(n)[:k]
		c := MustCycle(r, perm...)
		sum := 0
		for _, g := range c.Gaps(r) {
			sum += g
		}
		return sum == n && c.Len() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArcsPartitionRingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		r := ring.MustNew(n)
		k := 3 + rng.Intn(n-2)
		c := MustCycle(r, rng.Perm(n)[:k]...)
		covered := make([]int, n)
		for _, a := range c.Arcs(r) {
			for _, l := range a.Links(r) {
				covered[l]++
			}
		}
		for _, cnt := range covered {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUsesShortArcsOnly(t *testing.T) {
	r := ring.MustNew(8)
	if !MustCycle(r, 0, 3, 6).UsesShortArcsOnly(r) {
		t.Error("(0,3,6) on C8 has gaps 3,3,2: all short")
	}
	if MustCycle(r, 0, 1, 2).UsesShortArcsOnly(r) {
		t.Error("(0,1,2) on C8 has a gap of 6: long arc in use")
	}
	// Diameters (gap exactly n/2) count as short (ties allowed).
	if !MustCycle(r, 0, 4, 6).UsesShortArcsOnly(r) {
		t.Error("(0,4,6) on C8 has gaps 4,2,2: diameter tie is allowed")
	}
}

func TestTriangleQuadPredicates(t *testing.T) {
	r := ring.MustNew(9)
	if !MustCycle(r, 0, 1, 2).IsTriangle() {
		t.Error("IsTriangle")
	}
	if !MustCycle(r, 0, 1, 2, 3).IsQuad() {
		t.Error("IsQuad")
	}
	if MustCycle(r, 0, 1, 2, 3, 4).IsTriangle() || MustCycle(r, 0, 1, 2, 3, 4).IsQuad() {
		t.Error("C5 is neither triangle nor quad")
	}
}

func TestEqualAndKey(t *testing.T) {
	r := ring.MustNew(7)
	a := MustCycle(r, 3, 0, 5)
	b := MustCycle(r, 5, 3, 0)
	c := MustCycle(r, 0, 3, 6)
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Error("same vertex set must compare equal")
	}
	if a.Equal(c) || a.Key() == c.Key() {
		t.Error("different vertex sets must differ")
	}
	if a.String() != "(0,3,5)" {
		t.Errorf("String = %q, want (0,3,5)", a.String())
	}
}

func TestContains(t *testing.T) {
	r := ring.MustNew(6)
	c := MustCycle(r, 1, 3, 5)
	for _, v := range []int{1, 3, 5} {
		if !c.Contains(v) {
			t.Errorf("Contains(%d): want true", v)
		}
	}
	for _, v := range []int{0, 2, 4} {
		if c.Contains(v) {
			t.Errorf("Contains(%d): want false", v)
		}
	}
}
