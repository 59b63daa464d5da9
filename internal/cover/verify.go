package cover

import (
	"fmt"

	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/scratch"
)

// Verifier checks coverings against demands with caller-owned scratch
// state, so repeated verifications allocate nothing in steady state: the
// stamps and the dense coverage tally are reused across calls, growing
// only when a larger ring or host arrives. A Verifier is not safe for
// concurrent use; the package-level Verify/VerifyDRC/VerifyGeneral
// functions draw from a shared pool and are.
type Verifier struct {
	// stamp[i] == epoch marks host edge i as covered in VerifyGeneral.
	// Bumping epoch resets every slot in O(1); the array is cleared only
	// when it grows.
	stamp []uint64
	epoch uint64
	// cov is the dense coverage tally of the ring covering under Verify:
	// one edge per covered pair-slot.
	cov graph.Graph
}

// NewVerifier returns a Verifier with empty scratch state.
func NewVerifier() *Verifier { return &Verifier{} }

var verifiers = scratch.NewPool(NewVerifier)

// VerifyDRC checks the disjoint routing constraint for a single cycle by
// explicit construction rather than by the structure theorem: it checks
// that the canonical routing (clockwise arc per consecutive pair) uses
// every link exactly once, in O(k) for a cycle of k vertices, reporting
// the first link claimed by two arcs. For a well-formed Cycle this always
// succeeds — the test suite relies on that — but the verifier recomputes
// it so that experiment results never depend on the constructor's
// correctness alone.
func VerifyDRC(r ring.Ring, c Cycle) error {
	vf := verifiers.Get()
	err := vf.VerifyDRC(r, c)
	verifiers.Put(vf)
	return err
}

// VerifyDRC is the pooled VerifyDRC against this verifier's scratch
// state. Allocation-free on the success path.
//
// Each clockwise arc starts where the previous one ended, so the arcs
// route one contiguous run of links starting at link Norm(verts[0]) — a
// cycle handed to the standalone VerifyDRC may carry out-of-ring vertex
// labels. Summing the gaps therefore names every fault a link-by-link
// walk would: a gap of 0 is an empty arc, a running sum past n routes
// link Norm(verts[0]) a second time on the arc that passes n, and a
// final sum below n leaves links unrouted.
//
//cyclecover:noalloc
func (vf *Verifier) VerifyDRC(r ring.Ring, c Cycle) error {
	n := r.N()
	verts := c.Vertices()
	k := len(verts)
	total := 0
	for i := 0; i < k; i++ {
		gap := r.Gap(verts[i], verts[(i+1)%k])
		if gap == 0 {
			return fmt.Errorf("cover: cycle %v yields an empty routing arc", c)
		}
		total += gap
		if total > n {
			return fmt.Errorf("cover: cycle %v routes link %d on two arcs", c, r.Norm(verts[0]))
		}
	}
	if total != n {
		return fmt.Errorf("cover: cycle %v routing covers %d links, want %d", c, total, n)
	}
	return nil
}

// ensureStamps grows the stamp array to n slots, resetting the epoch
// clock only when fresh (zeroed) storage is minted.
//
//cyclecover:noalloc
func (vf *Verifier) ensureStamps(n int) {
	if cap(vf.stamp) < n {
		vf.stamp = make([]uint64, n)
		vf.epoch = 0
		return
	}
	vf.stamp = vf.stamp[:n]
}

// Verify performs the full validity check of a covering against a demand
// graph:
//
//  1. every cycle's vertices lie on the ring;
//  2. every cycle satisfies the DRC (explicitly re-verified);
//  3. every demand edge is covered at least its multiplicity.
//
// It returns nil iff the covering is a valid DRC-covering of the demand.
// A nil covering or nil demand is an error, not a panic: zero-value
// instances (e.g. the Instance returned alongside a parse error) reach
// this boundary from untrusted callers.
func Verify(cv *Covering, demand *graph.Graph) error {
	vf := verifiers.Get()
	err := vf.Verify(cv, demand)
	verifiers.Put(vf)
	return err
}

// Verify is the pooled Verify against this verifier's scratch state.
// Allocation-free on the success path once the scratch arrays have grown
// to the ring size.
//
//cyclecover:noalloc
func (vf *Verifier) Verify(cv *Covering, demand *graph.Graph) error {
	if cv == nil {
		return fmt.Errorf("cover: nil covering")
	}
	if demand == nil {
		return fmt.Errorf("cover: nil demand graph (zero-value instance?)")
	}
	n := cv.Ring.N()
	for i, c := range cv.Cycles {
		for _, v := range c.Vertices() {
			if !cv.Ring.Valid(v) {
				return fmt.Errorf("cover: cycle %d = %v has vertex %d outside ring of size %d", i, c, v, cv.Ring.N())
			}
		}
		if err := vf.VerifyDRC(cv.Ring, c); err != nil {
			return fmt.Errorf("cover: cycle %d: %w", i, err)
		}
	}
	if demand.N() > n {
		return fmt.Errorf("cover: demand graph on %d vertices exceeds ring size %d", demand.N(), n)
	}
	// Coverage: tally every covered pair-slot into the dense scratch
	// graph, then scan the demand once in deterministic order.
	vf.cov.Reset(n)
	cv.TallyCoverage(&vf.cov)
	return coverageShortfall(&vf.cov, demand)
}

// VerifyOptimal verifies the covering against the all-to-all instance and
// additionally checks that its size matches ρ(n) exactly. It is the
// acceptance check used by the Theorem 1/Theorem 2 experiments.
func VerifyOptimal(cv *Covering) error {
	n := cv.Ring.N()
	if err := Verify(cv, graph.Complete(n)); err != nil {
		return err
	}
	if got, want := cv.Size(), Rho(n); got != want {
		return fmt.Errorf("cover: covering of K_%d uses %d cycles, ρ = %d", n, got, want)
	}
	return nil
}
