// Package survive simulates failures on a planned WDM ring and the
// paper's protection mechanism: each subnetwork (covering cycle) protects
// itself independently — when a link on a request's working arc fails, the
// traffic is switched onto the rest of the cycle, riding the spare
// wavelength the long way around ("in case of failure we reroute the
// traffic through the failed link via the remaining part of the cycle
// using the other half of the capacity").
//
// The simulator verifies the survivability claim that motivates the whole
// construction: every single-link failure is recoverable, because a
// cycle's working arcs partition the ring, so a failed link breaks exactly
// one working arc per subnetwork and the complementary path around the
// cycle is intact. Beyond the guarantee, the sweep engine (SweepCtx)
// measures what independent per-cycle protection delivers under k
// simultaneous failures: there a protection path may itself be broken,
// and the aggregated restoration rates quantify what single-failure
// protection does NOT promise. Sweeps are exhaustive for k ≤ 2,
// deterministically sampled for k ≥ 3, evaluate their scenarios in
// sequence order, and honour context cancellation mid-sweep. See
// DESIGN.md §6.
package survive

import (
	"fmt"
	"sort"

	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// Reroute describes the protection switch for one affected request.
type Reroute struct {
	Request    graph.Edge
	Subnetwork int
	// WorkingLen is the length (links) of the failed working arc;
	// SpareLen of the protection path around the rest of the cycle.
	WorkingLen int
	SpareLen   int
}

// FailureReport summarises the network state under a set of failed links.
type FailureReport struct {
	Failed     []ring.Link
	Affected   []Reroute // requests whose working arc broke and were restored
	Lost       []graph.Edge
	Unaffected int
}

// Restored reports whether every affected request was restored.
func (fr FailureReport) Restored() bool { return len(fr.Lost) == 0 }

// RestorationRate returns the fraction of demands still served.
func (fr FailureReport) RestorationRate() float64 {
	total := fr.Unaffected + len(fr.Affected) + len(fr.Lost)
	if total == 0 {
		return 1
	}
	return float64(fr.Unaffected+len(fr.Affected)) / float64(total)
}

// Simulator drives failure scenarios against a planned network.
type Simulator struct {
	nw *wdm.Network
}

// NewSimulator wraps a planned network.
func NewSimulator(nw *wdm.Network) *Simulator { return &Simulator{nw: nw} }

// Fail simulates the simultaneous failure of the given links and computes,
// per demand, whether it survives: unaffected (working arc intact),
// restored (working arc broken, protection path intact), or lost (both
// broken).
func (s *Simulator) Fail(links ...ring.Link) (FailureReport, error) {
	r := s.nw.Ring
	failed := make(map[ring.Link]bool, len(links))
	for _, l := range links {
		if int(l) < 0 || int(l) >= r.Links() {
			return FailureReport{}, fmt.Errorf("survive: link %d outside ring of %d links", l, r.Links())
		}
		failed[ring.Link(r.Norm(int(l)))] = true
	}
	report := FailureReport{}
	//cyclecover:nondet keys are sorted immediately below before any use
	for l := range failed {
		report.Failed = append(report.Failed, l)
	}
	// The failed-link list is part of the report (and of /simulate-shaped
	// JSON downstream); map order must not leak into output.
	sort.Slice(report.Failed, func(i, j int) bool { return report.Failed[i] < report.Failed[j] })

	for _, e := range s.nw.Demand.Edges() {
		sub, ok := s.nw.SubnetworkFor(e.U, e.V)
		if !ok {
			return FailureReport{}, fmt.Errorf("survive: demand %v has no subnetwork", e)
		}
		arc, _ := s.nw.WorkingArc(e.U, e.V)
		if !arcBroken(r, arc, failed) {
			report.Unaffected++
			continue
		}
		// Protection: the rest of the cycle, i.e. the union of the other
		// working arcs traversed in order — equivalently the complement
		// arc from the request's far endpoint back to the near one.
		spare := r.ArcBetween(arc.To, arc.From)
		if arcBroken(r, spare, failed) {
			report.Lost = append(report.Lost, e)
			continue
		}
		report.Affected = append(report.Affected, Reroute{
			Request:    e,
			Subnetwork: sub.Index,
			WorkingLen: arc.Len(r),
			SpareLen:   spare.Len(r),
		})
	}
	return report, nil
}

func arcBroken(r ring.Ring, a ring.Arc, failed map[ring.Link]bool) bool {
	//cyclecover:nondet order-free any-of predicate; result independent of iteration order
	for l := range failed {
		if a.Contains(r, l) {
			return true
		}
	}
	return false
}
