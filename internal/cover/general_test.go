package cover

import (
	"fmt"
	"testing"

	"github.com/cyclecover/cyclecover/internal/graph"
)

// petersenCover returns a hand-rolled valid cycle cover of the Petersen
// graph: the outer pentagon, the inner pentagram, and three 5-cycles
// that sweep up the spokes. Length 25 — valid but deliberately not
// short, so it exercises the verifier rather than the optimizer.
func petersenCover() *Covering {
	cv := NewGeneralCovering(10)
	cv.Add(
		MustWalkCycle(0, 1, 2, 3, 4), // outer pentagon
		MustWalkCycle(5, 7, 9, 6, 8), // inner pentagram
		MustWalkCycle(0, 5, 7, 2, 1), // spokes 0, 2
		MustWalkCycle(1, 6, 8, 3, 2), // spokes 1, 3
		MustWalkCycle(4, 9, 6, 1, 0), // spokes 4, 1
	)
	return cv
}

func TestWalkCycleCanonical(t *testing.T) {
	// All rotations and both directions of the same cyclic sequence must
	// canonicalize to the identical stored order.
	want := MustWalkCycle(0, 2, 7, 4)
	for _, verts := range [][]int{
		{2, 7, 4, 0},
		{7, 4, 0, 2},
		{4, 0, 2, 7},
		{0, 4, 7, 2}, // reflected
		{4, 7, 2, 0},
		{7, 2, 0, 4},
	} {
		got, err := WalkCycle(verts)
		if err != nil {
			t.Fatalf("WalkCycle(%v): %v", verts, err)
		}
		if !got.Equal(want) {
			t.Fatalf("WalkCycle(%v) = %v, want %v", verts, got, want)
		}
	}
	// The canonical form leads with the minimum and prefers the smaller
	// second vertex.
	vs := MustWalkCycle(5, 3, 9, 4).Vertices()
	if vs[0] != 3 || vs[1] > vs[len(vs)-1] {
		t.Fatalf("canonical order broken: %v", vs)
	}
	for _, bad := range [][]int{
		{},
		{1, 2},
		{1, 2, 1},
		{0, -1, 2},
	} {
		if _, err := WalkCycle(bad); err == nil {
			t.Fatalf("WalkCycle(%v) accepted", bad)
		}
	}
}

func TestVerifyGeneralPetersen(t *testing.T) {
	host := graph.Petersen()
	cv := petersenCover()
	if err := VerifyGeneral(cv, host); err != nil {
		t.Fatalf("valid Petersen cover rejected: %v", err)
	}
	if got := cv.TotalLength(); got != 25 {
		t.Fatalf("TotalLength = %d, want 25", got)
	}

	// Dropping any single cycle must leave some host edge uncovered.
	for i := range cv.Cycles {
		partial := NewGeneralCovering(10)
		for j, c := range cv.Cycles {
			if j != i {
				partial.Add(c)
			}
		}
		if err := VerifyGeneral(partial, host); err == nil {
			t.Fatalf("cover missing cycle %d accepted", i)
		}
	}
}

func TestVerifyGeneralRejections(t *testing.T) {
	host := graph.Petersen()
	if err := VerifyGeneral(nil, host); err == nil {
		t.Fatal("nil covering accepted")
	}
	if err := VerifyGeneral(petersenCover(), nil); err == nil {
		t.Fatal("nil host accepted")
	}

	// A walk using a non-edge: 0–2 skips a pentagon vertex.
	cv := petersenCover()
	cv.Add(MustWalkCycle(0, 2, 4))
	if err := VerifyGeneral(cv, host); err == nil {
		t.Fatal("cover with non-host edge {0,2} accepted")
	}

	// A walk leaving the vertex range.
	cv = petersenCover()
	cv.Add(MustWalkCycle(0, 1, 99))
	if err := VerifyGeneral(cv, host); err == nil {
		t.Fatal("cover with out-of-range vertex accepted")
	}

	// Regression for the latent K_n assumption: a ring-built Cycle stores
	// vertices sorted by ring order, which silently re-routes the walk.
	// {0, 2, 4} sorted is a triangle over pentagon *chords* — VerifyGeneral
	// must judge the stored order against the host, not assume adjacency.
	c6 := graph.NewHost(6, graph.Cycle(6).Edges())
	rc := NewGeneralCovering(6)
	rc.Add(MustWalkCycle(0, 1, 2, 3, 4, 5))
	if err := VerifyGeneral(rc, c6); err != nil {
		t.Fatalf("hamilton cover of C_6 rejected: %v", err)
	}
	rc2 := NewGeneralCovering(6)
	rc2.Add(MustWalkCycle(0, 2, 4), MustWalkCycle(1, 3, 5))
	if err := VerifyGeneral(rc2, c6); err == nil {
		t.Fatal("chord triangles accepted as cover of C_6")
	}
}

// TestVerifyGeneralPrism covers a non-snark cubic host with quad faces:
// the two triangle faces plus the three square faces of the 3-prism
// cover every edge twice.
func TestVerifyGeneralPrism(t *testing.T) {
	host := graph.Prism(3)
	cv := NewGeneralCovering(6)
	cv.Add(
		MustWalkCycle(0, 1, 2),
		MustWalkCycle(3, 4, 5),
		MustWalkCycle(0, 1, 4, 3),
		MustWalkCycle(1, 2, 5, 4),
		MustWalkCycle(2, 0, 3, 5),
	)
	if err := VerifyGeneral(cv, host); err != nil {
		t.Fatalf("prism face cover rejected: %v", err)
	}
}

func TestSCCBounds(t *testing.T) {
	pet := graph.Petersen()
	if got := SCCLowerBound(pet); got != 20 {
		t.Fatalf("Petersen SCC lower bound = %d, want 20 (m + n/2)", got)
	}
	if got := CubicSCCUpperBound(pet.M()); got != 21 {
		t.Fatalf("CubicSCCUpperBound(15) = %d, want 21", got)
	}
	// The snark baseline 4/3·m + 1 is tight exactly on Petersen: 21.
	if got := SnarkSCCUpperBound(pet.M()); got != 21 {
		t.Fatalf("SnarkSCCUpperBound(15) = %d, want 21", got)
	}
	j5 := graph.FlowerSnark(5)
	if got, want := SCCLowerBound(j5), 40; got != want {
		t.Fatalf("J5 SCC lower bound = %d, want %d", got, want)
	}
	if got, want := SnarkSCCUpperBound(j5.M()), 41; got != want {
		t.Fatalf("SnarkSCCUpperBound(30) = %d, want %d", got, want)
	}
	// Non-cubic: on a plain cycle the edge count dominates the visit sum.
	if got := SCCLowerBound(graph.NewHost(5, graph.Cycle(5).Edges())); got != 5 {
		t.Fatalf("C_5 SCC lower bound = %d, want 5", got)
	}
}

// TestVerifyGeneralWarmZeroAllocs pins the hot-path contract for the
// general-host verifier, mirroring TestVerifyWarmZeroAllocs: once the
// pooled scratch has grown to the host size, a full VerifyGeneral —
// per-edge adjacency walk plus coverage scan — allocates nothing.
func TestVerifyGeneralWarmZeroAllocs(t *testing.T) {
	host := graph.Petersen()
	cv := petersenCover()
	vf := NewVerifier()
	if err := vf.VerifyGeneral(cv, host); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := vf.VerifyGeneral(cv, host); err != nil {
			t.Error(err)
		}
	}); avg != 0 {
		t.Fatalf("warm Verifier.VerifyGeneral allocated %.2f/op, want 0", avg)
	}
	if raceEnabled {
		return // sync.Pool drops Puts under -race by design
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := VerifyGeneral(cv, host); err != nil {
			t.Error(err)
		}
	}); avg != 0 {
		t.Fatalf("warm pooled VerifyGeneral allocated %.2f/op, want 0", avg)
	}
}

// FuzzGeneralVerify decodes an arbitrary host graph and an arbitrary
// covering from fuzz bytes and checks that VerifyGeneral (a) never
// panics, and (b) agrees with an independent ground truth computed by
// explicit edge bookkeeping: accept iff every walk step is a host edge,
// every vertex is in range, and every host edge is covered.
func FuzzGeneralVerify(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 0, 3, 1, 4, 2, 5}, []byte{3, 0, 1, 2, 4, 0, 1, 4, 3})
	f.Add(uint8(10), []byte{0, 1, 1, 2}, []byte{3, 0, 1, 2})
	f.Add(uint8(3), []byte{}, []byte{})
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0}, []byte{5, 0, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, nRaw uint8, edgeBytes, cycleBytes []byte) {
		n := 3 + int(nRaw)%18
		// The ground truth reads a dense copy of the host, not the Host
		// the verifier indexes.
		dense := graph.New(n)
		var edges []graph.Edge
		for i := 0; i+1 < len(edgeBytes); i += 2 {
			u, v := int(edgeBytes[i])%n, int(edgeBytes[i+1])%n
			if u != v {
				dense.AddEdge(u, v)
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		host := graph.NewHost(n, edges)

		cv := NewGeneralCovering(n)
		for i := 0; i < len(cycleBytes); {
			k := 3 + int(cycleBytes[i])%5 // walk length 3..7
			i++
			if i+k > len(cycleBytes) {
				break
			}
			verts := make([]int, k)
			for j := 0; j < k; j++ {
				verts[j] = int(cycleBytes[i+j]) % (n + 2) // may exceed range
			}
			i += k
			c, err := WalkCycle(verts)
			if err != nil {
				continue // duplicates: not a verification concern
			}
			cv.Add(c)
		}

		verdict := VerifyGeneral(cv, host)

		// Ground truth by explicit bookkeeping.
		covered := make(map[graph.Edge]bool)
		valid := true
		for _, c := range cv.Cycles {
			vs := c.Vertices()
			for j := range vs {
				u, v := vs[j], vs[(j+1)%len(vs)]
				if u >= n || v >= n || !dense.HasEdge(u, v) {
					valid = false
					continue
				}
				covered[graph.NewEdge(u, v)] = true
			}
		}
		if valid {
			for _, e := range dense.Edges() {
				if !covered[e] {
					valid = false
					break
				}
			}
		}
		if valid && verdict != nil {
			t.Fatalf("VerifyGeneral rejected a valid cover: %v (n=%d, cycles=%v)", verdict, n, cv.Cycles)
		}
		if !valid && verdict == nil {
			t.Fatalf("VerifyGeneral accepted an invalid cover (n=%d, cycles=%v)", n, cv.Cycles)
		}
	})
}

// BenchmarkGeneralVerify is the pinned warm general-verifier hot path:
// full VerifyGeneral of a face cover of the flower snark J_9 (36
// vertices, 54 edges) with a dedicated Verifier. Gated at 0 allocs/op
// by cmd/benchgate.
func BenchmarkGeneralVerify(b *testing.B) {
	host := graph.FlowerSnark(9)
	cv, err := greedyBenchCover(host)
	if err != nil {
		b.Fatal(err)
	}
	vf := NewVerifier()
	if err := vf.VerifyGeneral(cv, host); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vf.VerifyGeneral(cv, host); err != nil {
			b.Fatal(err)
		}
	}
}

// greedyBenchCover builds a valid (not short) cover for a cubic host by
// walking each uncovered edge around a shortest cycle through it, found
// by BFS between its endpoints with the edge removed. Test-only.
func greedyBenchCover(host *graph.Host) (*Covering, error) {
	n := host.N()
	cv := NewGeneralCovering(n)
	cov := graph.New(n)
	var missing []graph.Edge
	host.ForEachEdge(func(u, v, _ int) bool {
		missing = append(missing, graph.Edge{U: u, V: v})
		return true
	})
	for _, e := range missing {
		if cov.Mult(e.U, e.V) > 0 {
			continue
		}
		path := bfsPathAvoiding(host, e.U, e.V)
		if path == nil {
			return nil, fmt.Errorf("no cycle through %v", e)
		}
		c, err := WalkCycle(path)
		if err != nil {
			return nil, err
		}
		cv.Add(c)
		for _, p := range c.Pairs() {
			cov.AddEdge(p.U, p.V)
		}
	}
	return cv, nil
}

// bfsPathAvoiding returns a shortest u→v path not using edge {u,v}
// directly, as a vertex sequence starting at u and ending at v (which
// closes into a cycle through {u,v}); nil when none exists.
func bfsPathAvoiding(g *graph.Host, u, v int) []int {
	prev := make([]int, g.N())
	for i := range prev {
		prev[i] = -2
	}
	prev[u] = -1
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, w32 := range g.Neighbors(x) {
			w := int(w32)
			if x == u && w == v {
				continue // must go the long way around
			}
			if prev[w] == -2 {
				prev[w] = x
				queue = append(queue, w)
			}
		}
	}
	if prev[v] == -2 {
		return nil
	}
	var rev []int
	for x := v; x != -1; x = prev[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
