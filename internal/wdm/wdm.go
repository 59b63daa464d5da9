// Package wdm models the optical layer the paper plans: a WDM ring whose
// survivable design is a DRC cycle covering. Each cycle of the covering
// becomes an independent subnetwork and is assigned two wavelengths — one
// for normal traffic, one for the spare capacity used after a failure —
// exactly as the paper prescribes ("we will associate a wavelength to each
// cycle (in fact two: one for the normal traffic and one for the spare
// one)").
//
// Because a DRC cycle's working routing tiles the entire ring (its arcs
// partition the links), any two cycles conflict on every link, so
// wavelengths cannot be reused between cycles: the network needs exactly
// 2·(number of cycles) wavelengths. That is the formal content of the
// paper's remark that, on a ring, minimising network cost means minimising
// the number of subnetworks — which is what ρ(n) captures.
package wdm

import (
	"fmt"
	"slices"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/routing"
)

// Wavelength identifies one wavelength channel on the ring.
type Wavelength int

// Subnetwork is one protected cycle of the design: a cycle of the
// covering, its two wavelengths, and the working routes of the requests it
// carries.
type Subnetwork struct {
	Index   int
	Cycle   cover.Cycle
	Working Wavelength
	Spare   Wavelength
	Routes  []routing.Route // canonical working routing; arcs tile the ring
}

// Network is a planned survivable WDM ring: the physical ring, the demand
// it serves, and one subnetwork per covering cycle. Every demand pair is
// assigned to exactly one subnetwork (the first cycle covering it).
//
// Plan also tallies the optical facts once, so ADMCount, TransitAt,
// MaxTransit and CostModel.Cost are O(1) reads. A Network is immutable
// after Plan and safe to share between goroutines.
type Network struct {
	Ring       ring.Ring
	Demand     *graph.Graph
	Subnets    []Subnetwork
	Assignment map[graph.Edge]int // demand pair → subnetwork index

	adms    int   // Σ|C| over the subnetworks' cycles
	onCycle []int // onCycle[v]: how many cycles contain ring node v
	minOn   int   // min over v of onCycle[v]
}

// Plan builds the network design for a demand graph and a covering. It
// fails if the covering does not cover the demand or violates the DRC.
//
// After verification the design is built in one O(Σ|C|) pass over the
// cycles in index order: each cycle's consecutive pairs are assigned to
// it unless an earlier cycle already took them, and each of its nodes is
// counted for the optical facts.
func Plan(cv *cover.Covering, demand *graph.Graph) (*Network, error) {
	if err := cover.Verify(cv, demand); err != nil {
		return nil, fmt.Errorf("wdm: covering rejected: %w", err)
	}
	n := cv.Ring.N()
	nw := &Network{
		Ring:       cv.Ring,
		Demand:     demand,
		Subnets:    make([]Subnetwork, 0, len(cv.Cycles)),
		Assignment: make(map[graph.Edge]int, demand.DistinctEdges()),
		onCycle:    make([]int, n),
	}
	// Verify admits a demand on fewer nodes than the ring; pairs touching
	// the rest are not demands.
	dn := demand.N()
	for i, c := range cv.Cycles {
		tour := routing.Tour(c.Vertices())
		routes, ok := tour.CanonicalRouting(cv.Ring)
		if !ok {
			return nil, fmt.Errorf("wdm: cycle %v is not DRC-routable", c)
		}
		nw.Subnets = append(nw.Subnets, Subnetwork{
			Index:   i,
			Cycle:   c,
			Working: Wavelength(2 * i),
			Spare:   Wavelength(2*i + 1),
			Routes:  routes,
		})
		for _, rt := range routes {
			e := rt.Request
			if e.V < dn && demand.HasEdge(e.U, e.V) {
				if _, taken := nw.Assignment[e]; !taken {
					nw.Assignment[e] = i
				}
			}
		}
		for _, v := range c.Vertices() {
			nw.onCycle[v]++
		}
		nw.adms += c.Len()
	}
	// Unreachable given Verify above; kept as a hard invariant.
	if missing := demand.DistinctEdges() - len(nw.Assignment); missing > 0 {
		return nil, fmt.Errorf("wdm: %d demands unassigned despite verified covering", missing)
	}
	if n > 0 {
		nw.minOn = slices.Min(nw.onCycle)
	}
	return nw, nil
}

// Wavelengths returns the number of wavelength channels the design needs:
// two per subnetwork (working + spare), with no reuse possible since every
// subnetwork's routing tiles the whole ring.
func (nw *Network) Wavelengths() int { return 2 * len(nw.Subnets) }

// ADMCount returns the number of add-drop multiplexers: one per
// (node, subnetwork) incidence — a node needs an ADM on a subnetwork's
// wavelength exactly when it terminates traffic there, i.e. when it lies
// on the cycle. This equals the covering's total vertex count, the
// objective of Eilam–Moran–Zaks [3] and Gerstel–Lin–Sasaki [4]; the
// comparison experiment C2 contrasts it with the paper's cycle-count
// objective.
func (nw *Network) ADMCount() int { return nw.adms }

// TransitAt returns the number of wavelength channels passing through node
// v purely optically: both wavelengths of every subnetwork whose cycle
// does not include v (the working path and its spare traverse every node
// of the ring, but only cycle members add/drop). A v off the ring lies on
// no cycle, so every channel counts.
func (nw *Network) TransitAt(v int) int {
	if v < 0 || v >= len(nw.onCycle) {
		return nw.Wavelengths()
	}
	return 2 * (len(nw.Subnets) - nw.onCycle[v])
}

// MaxTransit returns the maximum optical transit load over all nodes — a
// driver of optical-node cost in the paper's cost discussion.
func (nw *Network) MaxTransit() int { return 2 * (len(nw.Subnets) - nw.minOn) }

// SubnetworkFor returns the subnetwork serving the request {u,v}; ok is
// false when the pair is not a demand.
func (nw *Network) SubnetworkFor(u, v int) (Subnetwork, bool) {
	i, ok := nw.Assignment[graph.NewEdge(u, v)]
	if !ok {
		return Subnetwork{}, false
	}
	return nw.Subnets[i], true
}

// WorkingArc returns the arc carrying the request {u,v} in normal
// operation: the canonical routing arc of its subnetwork.
func (nw *Network) WorkingArc(u, v int) (ring.Arc, bool) {
	s, ok := nw.SubnetworkFor(u, v)
	if !ok {
		return ring.Arc{}, false
	}
	e := graph.NewEdge(u, v)
	for _, rt := range s.Routes {
		if rt.Request == e {
			return rt.Arc, true
		}
	}
	return ring.Arc{}, false
}

// CostModel is the linear form of the paper's "very complex" cost
// function: per-wavelength line cost, per-ADM equipment cost, per-transit
// optical port cost, and per-link-per-wavelength amplification cost.
type CostModel struct {
	PerWavelength float64
	PerADM        float64
	PerTransit    float64
	PerLinkChan   float64 // amplification/regeneration per link per channel
}

// DefaultCostModel uses unit weights that reflect the paper's emphasis:
// wavelengths and ADMs dominate, transit and amplification contribute.
var DefaultCostModel = CostModel{
	PerWavelength: 10,
	PerADM:        4,
	PerTransit:    1,
	PerLinkChan:   0.5,
}

// Cost evaluates the model on a planned network. The total transit
// Σ_v TransitAt(v) is 2·(S·n − Σ_v onCycle[v]) = 2·(S·n − ADMs) for S
// subnetworks, since each cycle node is one (node, subnetwork) incidence.
func (m CostModel) Cost(nw *Network) float64 {
	totalTransit := 2 * (len(nw.Subnets)*nw.Ring.N() - nw.ADMCount())
	channels := float64(nw.Wavelengths() * nw.Ring.Links())
	return m.PerWavelength*float64(nw.Wavelengths()) +
		m.PerADM*float64(nw.ADMCount()) +
		m.PerTransit*float64(totalTransit) +
		m.PerLinkChan*channels
}
