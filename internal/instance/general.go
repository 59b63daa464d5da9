// This file is the general-topology instance family: instead of demand
// over a ring, an Instance may carry an arbitrary bridgeless host graph
// whose every edge must be covered — the shortest-cycle-cover setting of
// the literature the repo tracks (Kaiser et al. on cubic graphs,
// Brinkmann–Goedgebeur–Hägglund–Markström on snarks). The host doubles
// as the demand: a cycle cover serves each host edge at least once, and
// the objective switches from cycle count to total cover length.
//
// Admission is strict and happens here, not downstream: a host with a
// bridge (an edge on no cycle) or a disconnected host admits no cycle
// cover at all, and an untrusted spec must learn that at parse time with
// an error, never as a construction panic.
package instance

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/cyclecover/cyclecover/internal/graph"
)

// MinGeneralN is the smallest admissible general host: a cycle needs
// three vertices.
const MinGeneralN = 3

// IsGeneral reports whether the instance is a general-topology one —
// covered against its Host graph rather than routed on a ring.
func (in Instance) IsGeneral() bool { return in.Host != nil }

// General admits an arbitrary host graph as a shortest-cycle-cover
// instance. The host must have at least MinGeneralN vertices, be
// connected, and be bridgeless; parallel edges are allowed (a doubled
// edge is never a bridge). Every host edge is a demand edge; the
// returned instance has no dense Demand. The checks are O(n + m).
func General(name string, host *graph.Host) (Instance, error) {
	if host == nil {
		return Instance{}, fmt.Errorf("instance: nil host graph")
	}
	if host.N() < MinGeneralN {
		return Instance{}, fmt.Errorf("instance: general host needs at least %d vertices, got %d", MinGeneralN, host.N())
	}
	if host.M() == 0 {
		return Instance{}, fmt.Errorf("instance: general host has no edges")
	}
	if !host.Connected() {
		return Instance{}, fmt.Errorf("instance: general host is disconnected — no cycle cover exists")
	}
	if e, found := host.FindBridge(); found {
		return Instance{}, fmt.Errorf("instance: general host has bridge %v — a bridge lies on no cycle, so no cycle cover exists", e)
	}
	return Instance{Name: name, Host: host}, nil
}

// Petersen returns the Petersen-graph instance, the canonical snark and
// the unique one whose shortest cycle cover needs 4/3·m + 1 = 21.
func Petersen() Instance {
	in, err := General("petersen (10v, 15e)", graph.Petersen())
	if err != nil {
		panic(err) // the generator is correct by construction
	}
	return in
}

// Blanusa returns the first or second Blanuša snark (18 vertices, 27
// edges) for which ∈ {1, 2}.
func Blanusa(which int) (Instance, error) {
	switch which {
	case 1:
		return General("blanusa-1 (18v, 27e)", graph.BlanusaFirst())
	case 2:
		return General("blanusa-2 (18v, 27e)", graph.BlanusaSecond())
	default:
		return Instance{}, fmt.Errorf("instance: blanusa variant must be 1 or 2, got %d", which)
	}
}

// Flower returns the flower snark J_k instance for odd k ≥ 3 (4k
// vertices, 6k edges; a snark for k ≥ 5).
func Flower(k int) (Instance, error) {
	if k < 3 || k%2 == 0 {
		return Instance{}, fmt.Errorf("instance: flower snark needs odd k >= 3, got %d", k)
	}
	return General(fmt.Sprintf("flower J_%d (%dv, %de)", k, 4*k, 6*k), graph.FlowerSnark(k))
}

// PrismInstance returns the k-prism instance (2k vertices, 3k edges), the
// hamiltonian cubic counterpoint to the snark families.
func PrismInstance(k int) (Instance, error) {
	if k < 3 {
		return Instance{}, fmt.Errorf("instance: prism needs k >= 3, got %d", k)
	}
	return General(fmt.Sprintf("prism CL_%d (%dv, %de)", k, 2*k, 3*k), graph.Prism(k))
}

// RandomCubic returns a seeded random connected bridgeless cubic
// instance on n vertices (n even, ≥ 4).
func RandomCubic(n int, seed int64) (Instance, error) {
	g, err := graph.RandomCubicBridgeless(n, seed)
	if err != nil {
		return Instance{}, fmt.Errorf("instance: %w", err)
	}
	return General(fmt.Sprintf("cubic(n=%d, seed=%d)", n, seed), g)
}

// ParseEdgeList builds a general instance on n vertices from a compact
// edge list "u-v,u-v,...". Vertices must lie in [0, n); self-loops are
// rejected (NewHost would panic on them, and a loop is never part of a
// simple cycle anyway). The parsed graph then passes the General
// admission check: connected and bridgeless.
func ParseEdgeList(n int, body string) (Instance, error) {
	if n < MinGeneralN {
		return Instance{}, fmt.Errorf("instance: edge list needs n >= %d, got %d", MinGeneralN, n)
	}
	if body == "" {
		return Instance{}, fmt.Errorf("instance: empty edge list")
	}
	toks := strings.Split(body, ",")
	edges := make([]graph.Edge, 0, len(toks))
	for _, tok := range toks {
		uv := strings.Split(tok, "-")
		if len(uv) != 2 {
			return Instance{}, fmt.Errorf("instance: bad edge %q: want <u>-<v>", tok)
		}
		u, err1 := strconv.Atoi(uv[0])
		v, err2 := strconv.Atoi(uv[1])
		if err1 != nil || err2 != nil {
			return Instance{}, fmt.Errorf("instance: bad edge %q: want integer endpoints", tok)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return Instance{}, fmt.Errorf("instance: edge %q outside [0, %d)", tok, n)
		}
		if u == v {
			return Instance{}, fmt.Errorf("instance: self-loop %q — loops lie on no simple cycle", tok)
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return General(fmt.Sprintf("edges (%dv, %de)", n, len(edges)), graph.NewHost(n, edges))
}

// ParseAdjacency builds a general instance from an adjacency list
// "nbrs;nbrs;..." — row i holds the comma-separated neighbors of vertex
// i, and n is the number of rows. Every edge must be listed from both
// endpoints (the format is an undirected adjacency list, so asymmetry is
// a spec error, not a half-edge). An empty row is allowed syntactically
// but fails the connectivity admission.
func ParseAdjacency(body string) (Instance, error) {
	rows := strings.Split(body, ";")
	n := len(rows)
	if n < MinGeneralN {
		return Instance{}, fmt.Errorf("instance: adjacency list needs >= %d rows, got %d", MinGeneralN, n)
	}
	// Each listed arc becomes one key: its pair {lo, hi}, then which row
	// listed it — bit 0 clear for the lower endpoint's row, set for the
	// higher's. Sorted, the keys group by pair in ascending (lo, hi)
	// order with the lower row's arcs first, so one scan finds the
	// multiplicity each row claims. An undirected adjacency list is
	// symmetric iff every pair's two claims agree; the agreed count is the
	// edge multiplicity.
	var arcs []uint64
	for u, row := range rows {
		row = strings.TrimSpace(row)
		if row == "" {
			continue
		}
		for _, tok := range strings.Split(row, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return Instance{}, fmt.Errorf("instance: row %d: bad neighbor %q", u, tok)
			}
			if v < 0 || v >= n {
				return Instance{}, fmt.Errorf("instance: row %d: neighbor %d outside [0, %d)", u, v, n)
			}
			if v == u {
				return Instance{}, fmt.Errorf("instance: row %d: self-loop", u)
			}
			key := uint64(min(u, v))<<32 | uint64(max(u, v))<<1
			if u > v {
				key |= 1
			}
			arcs = append(arcs, key)
		}
	}
	slices.Sort(arcs)
	var edges []graph.Edge
	var unlisted error // the first pair only its higher endpoint's row lists
	for i := 0; i < len(arcs); {
		pair := arcs[i] >> 1
		var claim [2]int // arcs listed by the lower and the higher endpoint's row
		for ; i < len(arcs) && arcs[i]>>1 == pair; i++ {
			claim[arcs[i]&1]++
		}
		u, v := int(pair>>31), int(pair&(1<<31-1))
		switch {
		case claim[0] > 0 && claim[0] != claim[1]:
			return Instance{}, fmt.Errorf("instance: asymmetric adjacency: row %d lists %d ×%d but row %d lists %d ×%d", u, v, claim[0], v, u, claim[1])
		case claim[0] == 0 && unlisted == nil:
			unlisted = fmt.Errorf("instance: asymmetric adjacency: row %d lists %d ×%d but row %d does not list %d", v, u, claim[1], u, v)
		}
		for range claim[0] {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	if unlisted != nil {
		return Instance{}, unlisted
	}
	return General(fmt.Sprintf("adjacency (%dv, %de)", n, len(edges)), graph.NewHost(n, edges))
}

// ParseGeneral builds a general-topology instance from a compact demand
// spec, extending the ring-demand wire format of Parse:
//
//	petersen                 the Petersen graph (requires n = 10)
//	blanusa:<1|2>            first/second Blanuša snark (requires n = 18)
//	flower:<k>               flower snark J_k, odd k >= 3 (requires n = 4k)
//	prism:<k>                k-prism, k >= 3 (requires n = 2k)
//	cubic:<seed>             seeded random bridgeless cubic graph on n vertices
//	edges:<u-v,u-v,...>      explicit edge list on n vertices
//	adj:<nbrs;nbrs;...>      adjacency list, one row per vertex (n = rows)
//
// Fixed-size families check the caller's n so a surprising instance
// size is an error, not a silent override. They check it before the
// host is built: building is O(size), but specs are untrusted and the
// size is theirs to choose. ok reports whether the spec named a general
// family at all; when false the caller should fall through to the ring
// families.
func ParseGeneral(n int, spec string) (Instance, bool, error) {
	// fixed builds a fixed family's host of per·k vertices after checking
	// that count against n. A k outside the family's range (inRange
	// false) is left to build, which rejects it before building anything.
	fixed := func(per, k int, inRange bool, build func() (Instance, error)) (Instance, bool, error) {
		switch {
		case !inRange:
		case k > math.MaxInt/per:
			return Instance{}, true, fmt.Errorf("instance: spec %q is too large a graph for n=%d", spec, n)
		case per*k != n:
			return Instance{}, true, fmt.Errorf("instance: spec %q is a graph on %d vertices, but n=%d was requested", spec, per*k, n)
		}
		in, err := build()
		if err != nil {
			return Instance{}, true, err
		}
		return in, true, nil
	}
	switch {
	case spec == "petersen":
		return fixed(10, 1, true, func() (Instance, error) { return Petersen(), nil })
	case strings.HasPrefix(spec, "blanusa:"):
		which, err := strconv.Atoi(strings.TrimPrefix(spec, "blanusa:"))
		if err != nil {
			return Instance{}, true, fmt.Errorf("bad blanusa spec %q: want blanusa:<1|2>", spec)
		}
		return fixed(18, 1, which == 1 || which == 2, func() (Instance, error) { return Blanusa(which) })
	case strings.HasPrefix(spec, "flower:"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "flower:"))
		if err != nil {
			return Instance{}, true, fmt.Errorf("bad flower spec %q: want flower:<k> with odd integer k >= 3", spec)
		}
		return fixed(4, k, k >= 3 && k%2 == 1, func() (Instance, error) { return Flower(k) })
	case strings.HasPrefix(spec, "prism:"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "prism:"))
		if err != nil {
			return Instance{}, true, fmt.Errorf("bad prism spec %q: want prism:<k> with integer k >= 3", spec)
		}
		return fixed(2, k, k >= 3, func() (Instance, error) { return PrismInstance(k) })
	case strings.HasPrefix(spec, "cubic:"):
		seed, err := strconv.ParseInt(strings.TrimPrefix(spec, "cubic:"), 10, 64)
		if err != nil {
			return Instance{}, true, fmt.Errorf("bad cubic spec %q: want cubic:<seed> with integer seed", spec)
		}
		in, err := RandomCubic(n, seed)
		if err != nil {
			return Instance{}, true, err
		}
		return in, true, nil
	case strings.HasPrefix(spec, "edges:"):
		in, err := ParseEdgeList(n, strings.TrimPrefix(spec, "edges:"))
		if err != nil {
			return Instance{}, true, err
		}
		return in, true, nil
	case strings.HasPrefix(spec, "adj:"):
		body := strings.TrimPrefix(spec, "adj:")
		return fixed(1, strings.Count(body, ";")+1, true, func() (Instance, error) { return ParseAdjacency(body) })
	default:
		return Instance{}, false, nil
	}
}
