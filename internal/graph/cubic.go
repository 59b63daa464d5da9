package graph

import (
	"fmt"
	"slices"

	"github.com/cyclecover/cyclecover/internal/scratch"
)

// This file provides the cubic host-graph generators behind the
// general-topology instance families: the classic snarks the
// short-cycle-cover literature is benchmarked on (Petersen, the two
// Blanuša snarks, the flower snarks) plus two non-snark cubic families
// (prisms, seeded random bridgeless cubic graphs) that exercise the same
// machinery without the 4/3·m + c tightness.

// Petersen returns the Petersen graph: 10 vertices, 15 edges, girth 5,
// the smallest snark and the unique one whose shortest cycle cover
// exceeds 4/3·m (it needs 21 = 4/3·15 + 1). Vertices 0–4 are the outer
// pentagon, 5–9 the inner pentagram (i+5 adjacent to ((i+2) mod 5)+5),
// with spokes i — i+5.
func Petersen() *Host {
	es := make([]Edge, 0, 15)
	for i := 0; i < 5; i++ {
		es = append(es,
			Edge{i, (i + 1) % 5},     // outer pentagon
			Edge{i, i + 5},           // spoke
			Edge{i + 5, (i+2)%5 + 5}) // inner pentagram
	}
	return NewHost(10, es)
}

// Prism returns the prism (circular ladder) CL_k on 2k vertices, k ≥ 3:
// two k-cycles 0..k-1 and k..2k-1 joined by rungs i — k+i. Cubic,
// bridgeless, 3-edge-colorable — the hamiltonian counterpoint to the
// snark families.
func Prism(k int) *Host {
	if k < 3 {
		panic(fmt.Sprintf("graph: prism needs k >= 3, got %d", k))
	}
	es := make([]Edge, 0, 3*k)
	for i := 0; i < k; i++ {
		es = append(es, Edge{i, (i + 1) % k}, Edge{k + i, k + (i+1)%k}, Edge{i, k + i})
	}
	return NewHost(2*k, es)
}

// FlowerSnark returns the flower snark J_k for odd k: 4k vertices, 6k
// edges. Hubs A_i = i carry stars to B_i = k+i (forming a k-cycle),
// C_i = 2k+i and D_i = 3k+i (forming one 2k-cycle C_0..C_{k-1}
// D_0..D_{k-1}). J_k is a snark for odd k ≥ 5; J_3 is cubic and
// bridgeless but has girth 3 and is conventionally excluded from the
// snark family. It panics for even or too-small k.
func FlowerSnark(k int) *Host {
	if k < 3 || k%2 == 0 {
		panic(fmt.Sprintf("graph: flower snark needs odd k >= 3, got %d", k))
	}
	es := make([]Edge, 0, 6*k)
	for i := 0; i < k; i++ {
		a, b, c, d := i, k+i, 2*k+i, 3*k+i
		es = append(es, Edge{a, b}, Edge{a, c}, Edge{a, d}, Edge{b, k + (i+1)%k})
		if i+1 < k {
			es = append(es, Edge{c, c + 1}, Edge{d, d + 1})
		}
	}
	es = append(es,
		Edge{2*k + (k - 1), 3 * k}, // C_{k-1} — D_0
		Edge{4*k - 1, 2 * k})       // D_{k-1} — C_0
	return NewHost(4*k, es)
}

// blanusa builds an 18-vertex dot product of two Petersen graphs — the
// construction that yields exactly the two snarks on 18 vertices, the
// Blanuša snarks. Copy 1 is Petersen minus the adjacent vertices {0, 1}
// (its vertices 2..9 map to 0..7, leaving dangling half-edges at the
// removed vertices' outer neighbors); copy 2 is Petersen minus the
// independent edges {0,1} and {2,3} (its vertices map to 8..17). The two
// non-isomorphic ways of wiring the dangling pairs to the broken edges
// give the first and second snark; the dot product of two snarks is a
// snark for every valid wiring, so both variants are certified
// non-3-edge-colorable by the generator tests.
func blanusa(second bool) *Host {
	es := make([]Edge, 0, 27)
	// Copy 1: Petersen minus vertices {0, 1}; old vertex p ∈ 2..9 → p−2.
	c1 := func(p int) int { return p - 2 }
	for _, e := range [][2]int{
		{2, 3}, {3, 4}, // surviving outer edges
		{2, 7}, {3, 8}, {4, 9}, // surviving spokes
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}, // inner pentagram
	} {
		es = append(es, Edge{c1(e[0]), c1(e[1])})
	}
	// Copy 2: Petersen minus edges {0,1} and {2,3}; old vertex q → 8+q.
	c2 := func(q int) int { return 8 + q }
	for _, e := range [][2]int{
		{1, 2}, {3, 4}, {4, 0}, // surviving outer edges
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}, // spokes
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}, // inner pentagram
	} {
		es = append(es, Edge{c2(e[0]), c2(e[1])})
	}
	// Wiring: vertex 0's dangling neighbors {4, 5} repair copy 2's broken
	// edge {0', 1'}; vertex 1's dangling neighbors {2, 6} repair {2', 3'}.
	// Swapping the second pair's orientation switches between the two
	// non-isomorphic outcomes.
	es = append(es, Edge{c1(4), c2(0)}, Edge{c1(5), c2(1)})
	if second {
		es = append(es, Edge{c1(2), c2(3)}, Edge{c1(6), c2(2)})
	} else {
		es = append(es, Edge{c1(2), c2(2)}, Edge{c1(6), c2(3)})
	}
	return NewHost(18, es)
}

// BlanusaFirst returns the first Blanuša snark: 18 vertices, 27 edges,
// girth 5.
func BlanusaFirst() *Host { return blanusa(false) }

// BlanusaSecond returns the second Blanuša snark (the other dot product
// of two Petersen graphs).
func BlanusaSecond() *Host { return blanusa(true) }

// maxCubicAttempts bounds the rejection-sampling loop of
// RandomCubicBridgeless. The pairing model produces a simple graph with
// probability bounded away from zero (asymptotically e^{-2} for cubic),
// and random cubic graphs are a.a.s. 3-connected, so a valid sample
// almost always lands within a handful of attempts; the cap converts a
// pathological seed into an error instead of a spin.
const maxCubicAttempts = 1000

// RandomCubicBridgeless samples a connected bridgeless simple cubic
// graph on n vertices (n even, ≥ 4) with the configuration model: three
// stubs per vertex, a seeded uniform perfect matching on the stubs,
// rejecting samples with self-loops, parallel edges, disconnection or a
// bridge. Deterministic for a given (n, seed).
//
// Most pairings are not simple, so simplicity is checked on a 3n-slot
// neighbour table first; only a simple pairing is indexed as a Host for
// the connectivity and bridge checks, each O(n).
func RandomCubicBridgeless(n int, seed int64) (*Host, error) {
	if n < 4 || n%2 != 0 {
		return nil, fmt.Errorf("graph: random cubic graph needs even n >= 4, got %d", n)
	}
	rng := scratch.Rands.Get()
	defer scratch.Rands.Put(rng)
	rng.Seed(seed)
	stubs := make([]int, 3*n)
	nbr := make([]int, 3*n) // nbr[3v : 3v+deg[v]] lists v's neighbours so far
	deg := make([]int, n)
	edges := make([]Edge, 3*n/2)
	for attempt := 0; attempt < maxCubicAttempts; attempt++ {
		for i := range stubs {
			stubs[i] = i / 3
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		if !simplePairing(stubs, nbr, deg) {
			continue
		}
		for i := range edges {
			edges[i] = Edge{stubs[2*i], stubs[2*i+1]}
		}
		h := NewHost(n, edges)
		if !h.Connected() || !h.Bridgeless() {
			continue
		}
		return h, nil
	}
	return nil, fmt.Errorf("graph: no bridgeless cubic graph on %d vertices found for seed %d within %d attempts", n, seed, maxCubicAttempts)
}

// simplePairing reports whether the stub pairing (stubs[2i], stubs[2i+1])
// has no self-loop and no repeated pair, recording neighbours in the
// caller's nbr/deg scratch (three slots per vertex).
func simplePairing(stubs, nbr, deg []int) bool {
	clear(deg)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || slices.Contains(nbr[3*u:3*u+deg[u]], v) {
			return false
		}
		nbr[3*u+deg[u]] = v
		nbr[3*v+deg[v]] = u
		deg[u]++
		deg[v]++
	}
	return true
}
