package ring

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 2} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d): want error, got nil", n)
		}
	}
	for _, n := range []int{3, 4, 5, 100} {
		r, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		if r.N() != n {
			t.Errorf("New(%d).N() = %d", n, r.N())
		}
		if r.Links() != n {
			t.Errorf("New(%d).Links() = %d, want %d", n, r.Links(), n)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(2): want panic")
		}
	}()
	MustNew(2)
}

func TestNorm(t *testing.T) {
	r := MustNew(7)
	cases := []struct{ in, want int }{
		{0, 0}, {6, 6}, {7, 0}, {8, 1}, {-1, 6}, {-7, 0}, {-8, 6}, {14, 0},
	}
	for _, c := range cases {
		if got := r.Norm(c.in); got != c.want {
			t.Errorf("Norm(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNextPrev(t *testing.T) {
	r := MustNew(5)
	if got := r.Next(4); got != 0 {
		t.Errorf("Next(4) = %d, want 0", got)
	}
	if got := r.Prev(0); got != 4 {
		t.Errorf("Prev(0) = %d, want 4", got)
	}
	for v := 0; v < 5; v++ {
		if r.Prev(r.Next(v)) != v {
			t.Errorf("Prev(Next(%d)) != %d", v, v)
		}
	}
}

func TestGapAndDist(t *testing.T) {
	r := MustNew(8)
	cases := []struct{ u, v, gap, dist int }{
		{0, 3, 3, 3},
		{3, 0, 5, 3},
		{0, 4, 4, 4}, // diameter
		{7, 1, 2, 2},
		{2, 2, 0, 0},
	}
	for _, c := range cases {
		if got := r.Gap(c.u, c.v); got != c.gap {
			t.Errorf("Gap(%d,%d) = %d, want %d", c.u, c.v, got, c.gap)
		}
		if got := r.Dist(c.u, c.v); got != c.dist {
			t.Errorf("Dist(%d,%d) = %d, want %d", c.u, c.v, got, c.dist)
		}
	}
}

func TestGapSymmetryProperty(t *testing.T) {
	r := MustNew(11)
	f := func(u, v int) bool {
		u, v = r.Norm(u), r.Norm(v)
		if u == v {
			return r.Gap(u, v) == 0
		}
		return r.Gap(u, v)+r.Gap(v, u) == r.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistIsMetricProperty(t *testing.T) {
	r := MustNew(13)
	f := func(a, b, c int) bool {
		a, b, c = r.Norm(a), r.Norm(b), r.Norm(c)
		// Symmetry and triangle inequality.
		return r.Dist(a, b) == r.Dist(b, a) &&
			r.Dist(a, c) <= r.Dist(a, b)+r.Dist(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiameterAndAntipode(t *testing.T) {
	even := MustNew(10)
	if !even.IsDiameter(2, 7) {
		t.Error("IsDiameter(2,7) on C10: want true")
	}
	if even.IsDiameter(2, 6) {
		t.Error("IsDiameter(2,6) on C10: want false")
	}
	a, err := even.Antipode(3)
	if err != nil || a != 8 {
		t.Errorf("Antipode(3) = %d, %v; want 8, nil", a, err)
	}

	odd := MustNew(9)
	if odd.IsDiameter(0, 4) {
		t.Error("IsDiameter on odd ring: want false always")
	}
	if _, err := odd.Antipode(0); err == nil {
		t.Error("Antipode on odd ring: want error")
	}
}

func TestLinkBetween(t *testing.T) {
	r := MustNew(6)
	l, ok := r.LinkBetween(2, 3)
	if !ok || l != 2 {
		t.Errorf("LinkBetween(2,3) = %v, %v; want 2, true", l, ok)
	}
	l, ok = r.LinkBetween(0, 5)
	if !ok || l != 5 {
		t.Errorf("LinkBetween(0,5) = %v, %v; want 5, true", l, ok)
	}
	if _, ok := r.LinkBetween(0, 2); ok {
		t.Error("LinkBetween(0,2): want not adjacent")
	}
	u, v := r.Endpoints(5)
	if u != 5 || v != 0 {
		t.Errorf("Endpoints(5) = %d,%d; want 5,0", u, v)
	}
}

func TestArcBasics(t *testing.T) {
	r := MustNew(8)
	a := r.ArcBetween(6, 2) // 6→7→0→1→2, length 4
	if got := a.Len(r); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	wantLinks := []Link{6, 7, 0, 1}
	links := a.Links(r)
	if len(links) != len(wantLinks) {
		t.Fatalf("Links = %v, want %v", links, wantLinks)
	}
	for i := range links {
		if links[i] != wantLinks[i] {
			t.Fatalf("Links = %v, want %v", links, wantLinks)
		}
	}
	wantVerts := []int{6, 7, 0, 1, 2}
	verts := a.Vertices(r)
	for i := range wantVerts {
		if verts[i] != wantVerts[i] {
			t.Fatalf("Vertices = %v, want %v", verts, wantVerts)
		}
	}
}

func TestArcEmpty(t *testing.T) {
	r := MustNew(5)
	a := r.ArcBetween(3, 3)
	if !a.IsEmpty() {
		t.Error("arc(3,3): want empty")
	}
	if a.Len(r) != 0 || len(a.Links(r)) != 0 {
		t.Error("empty arc: want zero links")
	}
	if a.Contains(r, 3) {
		t.Error("empty arc must contain no link")
	}
	if got := a.Vertices(r); len(got) != 1 || got[0] != 3 {
		t.Errorf("empty arc vertices = %v, want [3]", got)
	}
}

func TestArcContains(t *testing.T) {
	r := MustNew(8)
	a := r.ArcBetween(6, 2)
	for _, l := range []Link{6, 7, 0, 1} {
		if !a.Contains(r, l) {
			t.Errorf("arc should contain link %d", l)
		}
	}
	for _, l := range []Link{2, 3, 4, 5} {
		if a.Contains(r, l) {
			t.Errorf("arc should not contain link %d", l)
		}
	}
}

func TestArcContainsVertex(t *testing.T) {
	r := MustNew(8)
	a := r.ArcBetween(6, 2)
	for _, v := range []int{7, 0, 1} {
		if !a.ContainsVertex(r, v) {
			t.Errorf("arc should strictly contain vertex %d", v)
		}
	}
	for _, v := range []int{6, 2, 3, 4, 5} {
		if a.ContainsVertex(r, v) {
			t.Errorf("arc should not strictly contain vertex %d", v)
		}
	}
}

func TestArcDisjoint(t *testing.T) {
	r := MustNew(10)
	a := r.ArcBetween(0, 4)
	b := r.ArcBetween(4, 9)
	c := r.ArcBetween(3, 6)
	if !a.Disjoint(r, b) {
		t.Error("arcs 0→4 and 4→9 share no link: want disjoint")
	}
	if a.Disjoint(r, c) {
		t.Error("arcs 0→4 and 3→6 share link 3: want not disjoint")
	}
	empty := r.ArcBetween(2, 2)
	if !a.Disjoint(r, empty) || !empty.Disjoint(r, a) {
		t.Error("empty arc is disjoint from everything")
	}
}

func TestArcPartitionProperty(t *testing.T) {
	// The arcs between cyclically consecutive members of any vertex set
	// partition the ring's links: pairwise disjoint, lengths sum to n.
	r := MustNew(12)
	f := func(raw []int) bool {
		set := map[int]bool{}
		for _, v := range raw {
			set[r.Norm(v)] = true
		}
		if len(set) < 2 {
			return true
		}
		vs := make([]int, 0, len(set))
		for v := range set {
			vs = append(vs, v)
		}
		SortByRingOrder(vs)
		total := 0
		arcs := make([]Arc, 0, len(vs))
		for i := range vs {
			a := r.ArcBetween(vs[i], vs[(i+1)%len(vs)])
			arcs = append(arcs, a)
			total += a.Len(r)
		}
		if total != r.N() {
			return false
		}
		for i := range arcs {
			for j := i + 1; j < len(arcs); j++ {
				if !arcs[i].Disjoint(r, arcs[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortByRingOrder(t *testing.T) {
	vs := []int{5, 1, 4, 2}
	SortByRingOrder(vs)
	want := []int{1, 2, 4, 5}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("SortByRingOrder = %v, want %v", vs, want)
		}
	}
	var empty []int
	SortByRingOrder(empty) // must not panic
	// Long sets (a /verify body may list every vertex) sort the same way.
	for _, n := range []int{12, 13, 1024} {
		long := make([]int, n)
		for i := range long {
			long[i] = (7*i + 3) % n
		}
		SortByRingOrder(long)
		for i, v := range long {
			if v != i {
				t.Fatalf("SortByRingOrder of a permuted 0..%d = %v", n-1, long)
			}
		}
	}
}
