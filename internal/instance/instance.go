// Package instance models the logical layer of the paper: the family of
// symmetric communication requests ("instance of communications") carried
// by the physical ring. Each instance is an undirected logical multigraph
// on the ring's vertices. The paper's central case is the total exchange
// (all-to-all) instance K_n; λK_n and general logical graphs appear in its
// extensions section.
package instance

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"github.com/cyclecover/cyclecover/internal/graph"
)

// Instance is a named demand set over n vertices. Ring instances carry
// only Demand, the dense logical graph of requests routed on the
// physical ring. General-topology instances (see general.go) carry only
// Host, an arbitrary bridgeless graph in the sparse representation: every
// host edge must be covered by a cycle of the host, and the objective is
// the total cover length rather than the cycle count.
type Instance struct {
	Name   string
	Demand *graph.Graph
	Host   *graph.Host
}

// N returns the number of vertices: the host's for a general instance,
// the demand's otherwise. A zero-value Instance (e.g. what Parse returns
// alongside an error) has neither and reports 0.
func (in Instance) N() int {
	if in.IsGeneral() {
		return in.Host.N()
	}
	return in.Demand.N()
}

// Requests returns the number of demand edges counted with multiplicity
// — a general instance's host edges; 0 for a zero-value Instance.
func (in Instance) Requests() int {
	if in.IsGeneral() {
		return in.Host.M()
	}
	return in.Demand.M()
}

// IsZero reports whether the instance carries neither a demand nor a
// host: the zero value that Parse returns alongside an error.
func (in Instance) IsZero() bool { return in.Demand == nil && in.Host == nil }

// IsAllToAll reports whether the demand is K_n with multiplicity one —
// the class ρ(n) speaks about. It is keyed on the demand itself, not on
// a spec string, so lambda:1 and alltoall answer alike. A
// general-topology instance whose host happens to be complete is not
// all-to-all: its objective is the shortest cycle cover, and ρ(n) says
// nothing about it.
func (in Instance) IsAllToAll() bool {
	if in.IsGeneral() {
		return false
	}
	n := in.N()
	pairs := n * (n - 1) / 2
	return in.Demand.DistinctEdges() == pairs && in.Demand.M() == pairs
}

// AllToAll is the total exchange instance: every pair communicates, the
// logical graph is K_n.
func AllToAll(n int) Instance {
	return Instance{Name: fmt.Sprintf("all-to-all K_%d", n), Demand: graph.Complete(n)}
}

// Lambda is the λK_n instance from the paper's extensions: every pair
// demands λ parallel connections.
func Lambda(n, lambda int) Instance {
	return Instance{
		Name:   fmt.Sprintf("%dK_%d", lambda, n),
		Demand: graph.LambdaComplete(n, lambda),
	}
}

// Neighbors is the adjacency instance: each node talks only to its two
// ring neighbours (a pure metro-ring traffic pattern).
func Neighbors(n int) Instance {
	return Instance{Name: fmt.Sprintf("ring neighbours C_%d", n), Demand: graph.Cycle(n)}
}

// Hub is the hubbed instance: every node communicates with a single hub
// (typical access-network traffic where one office aggregates upstream).
func Hub(n, hub int) Instance {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		if v != hub {
			g.AddEdge(hub, v)
		}
	}
	return Instance{Name: fmt.Sprintf("hub@%d on %d nodes", hub, n), Demand: g}
}

// RandomSymmetric samples each pair independently with probability
// density, using the given seed for reproducibility. Finite densities
// outside [0, 1] are clamped; a non-finite density (NaN, ±Inf) is an
// error — NaN in particular compares false against both clamp bounds
// and would otherwise silently yield an empty demand.
func RandomSymmetric(n int, density float64, seed int64) (Instance, error) {
	if math.IsNaN(density) || math.IsInf(density, 0) {
		return Instance{}, fmt.Errorf("instance: random density must be a finite number in [0, 1], got %v", density)
	}
	if density < 0 {
		density = 0
	}
	if density > 1 {
		density = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				g.AddEdge(u, v)
			}
		}
	}
	return Instance{
		Name:   fmt.Sprintf("random(n=%d, d=%.2f, seed=%d)", n, density, seed),
		Demand: g,
	}, nil
}

// MaxParseLambda bounds the λ accepted by Parse. Untrusted specs reach
// Parse (the cycled service feeds it query parameters), and an absurd λ
// would overflow the demand's edge count — m = λ·n(n−1)/2 wrapping
// negative defeats any downstream size guard — before any construction
// bound can apply.
const MaxParseLambda = 1 << 20

// Parse builds an instance from a compact demand spec, the shared wire
// format of the CLI tools and the cycled service:
//
//	alltoall                 the total exchange K_n
//	lambda:<k>               λK_n with λ = k ≥ 1
//	hub:<node>               all nodes to one hub in [0, n)
//	neighbors                ring-adjacent pairs only
//	random:<density>:<seed>  reproducible random symmetric demand
//
// plus the general-topology families documented on ParseGeneral
// (petersen, blanusa:<1|2>, flower:<k>, prism:<k>, cubic:<seed>,
// edges:<list>, adj:<rows>), which return instances covered against
// their own host graph instead of routed on the ring.
func Parse(n int, spec string) (Instance, error) {
	if in, ok, err := ParseGeneral(n, spec); ok {
		return in, err
	}
	if n < 0 {
		return Instance{}, fmt.Errorf("bad demand size n=%d for %q: want n >= 0", n, spec)
	}
	switch {
	case spec == "alltoall":
		return AllToAll(n), nil
	case spec == "neighbors":
		if n < 3 {
			return Instance{}, fmt.Errorf("bad neighbors spec: the ring-neighbour demand needs n >= 3, got n=%d", n)
		}
		return Neighbors(n), nil
	case strings.HasPrefix(spec, "lambda:"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "lambda:"))
		if err != nil || k < 1 || k > MaxParseLambda {
			return Instance{}, fmt.Errorf("bad lambda spec %q: want lambda:<k> with integer k in [1, %d]", spec, MaxParseLambda)
		}
		return Lambda(n, k), nil
	case strings.HasPrefix(spec, "hub:"):
		h, err := strconv.Atoi(strings.TrimPrefix(spec, "hub:"))
		if err != nil || h < 0 || h >= n {
			return Instance{}, fmt.Errorf("bad hub spec %q: want hub:<node> with integer node in [0, %d)", spec, n)
		}
		return Hub(n, h), nil
	case strings.HasPrefix(spec, "random:"):
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return Instance{}, fmt.Errorf("bad random spec %q: want random:<density>:<seed> with density in [0, 1] and integer seed", spec)
		}
		d, err1 := strconv.ParseFloat(parts[1], 64)
		s, err2 := strconv.ParseInt(parts[2], 10, 64)
		if err1 != nil || err2 != nil {
			return Instance{}, fmt.Errorf("bad random spec %q: want random:<density>:<seed> with density in [0, 1] and integer seed", spec)
		}
		// ParseFloat accepts "NaN" and "Inf"; those must not reach the
		// sampler, whose clamps NaN would slip straight through.
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return Instance{}, fmt.Errorf("bad random spec %q: density must be a finite number in [0, 1]", spec)
		}
		return RandomSymmetric(n, d, s)
	default:
		return Instance{}, fmt.Errorf("unknown demand %q: want alltoall, lambda:<k>, hub:<node>, neighbors, or random:<density>:<seed> — or a general-topology family (petersen, blanusa:<1|2>, flower:<k>, prism:<k>, cubic:<seed>, edges:<u-v,...>, adj:<nbrs;...>)", spec)
	}
}

// FromPairs builds an instance from explicit vertex pairs; repeated pairs
// accumulate multiplicity.
func FromPairs(n int, pairs [][2]int) (Instance, error) {
	g := graph.New(n)
	for _, p := range pairs {
		u, v := p[0], p[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return Instance{}, fmt.Errorf("instance: pair (%d,%d) outside [0,%d)", u, v, n)
		}
		if u == v {
			return Instance{}, fmt.Errorf("instance: self-request at node %d", u)
		}
		g.AddEdge(u, v)
	}
	return Instance{Name: fmt.Sprintf("custom (%d requests)", g.M()), Demand: g}, nil
}
