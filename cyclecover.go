// Package cyclecover is a Go implementation of survivable WDM ring design
// by DRC cycle covering, reproducing Bermond, Coudert, Chacon and
// Tillerot, "A Note on Cycle Covering", ACM SPAA 2001.
//
// The physical network is an undirected ring C_n; the logical demand is a
// family of symmetric requests (the central case is all-to-all, K_n). A
// design is a covering of the demand edges by cycles, each of which must
// admit an edge-disjoint routing on the ring (the disjoint routing
// constraint, DRC) so that it can be protected independently: each cycle
// gets a working and a spare wavelength, and any single link failure is
// recovered by switching traffic around the rest of its cycle.
//
// The package exposes:
//
//   - Rho, LowerBound, TheoremComposition — the paper's closed forms;
//   - CoverAllToAll, CoverInstance — constructors (Theorem 1's
//     construction for odd n is exactly optimal; even n is
//     search-certified optimal up to the documented limit and
//     asymptotically optimal beyond). CoverInstance takes a context
//     and its searches abort promptly when it fires; CoverAllToAll is
//     the context-free paper-level helper;
//   - Strategies, CoverInstanceStrategy — the pluggable solver engine:
//     every construction path (closed-form, exact, repair, greedy, and
//     the scc members for general hosts) is independently selectable by
//     name, and "portfolio" races them under one context with
//     deterministic winner selection;
//   - Verify — independent validity checking of any covering, running
//     on the flat dense graph core (DESIGN.md §7): link loads and
//     coverage are tallied over pooled scratch in one pass, so repeated
//     verification is allocation-free in steady state;
//   - PlanWDM, NewSimulator — the optical layer and failure simulation,
//     including the k-failure sweep engine (SweepOptions /
//     SweepResult): exhaustive single- and double-failure sweeps,
//     deterministically sampled k ≥ 3 sweeps, per-scenario reports and
//     critical-link attribution, cancellable mid-sweep;
//   - Planner — the cached planning facade: verified coverings and WDM
//     plans memoized per instance signature with single-flight
//     deduplication, the same path the cycled HTTP service (cmd/cycled)
//     serves. Every planning method takes a context first and
//     propagates cancellation and deadlines all the way into
//     branch-and-bound: a caller that gives up detaches immediately and
//     the search is cancelled once nobody wants it, without poisoning
//     the cache. Planner.Simulate plans through the cache and sweeps
//     the result — plan once, sweep many — the same path POST /simulate
//     serves.
//
// See DESIGN.md for the architecture (§3 covers the strategy registry,
// §5 the planner service, §5.5 the context and deadline semantics, §6
// the survivability subsystem) and EXPERIMENTS.md for the reproduction
// results.
package cyclecover

import (
	"context"
	"fmt"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/survive"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// Re-exported core types. They are defined in internal packages to keep
// the implementation layers private; these aliases are the stable names.
type (
	// Ring is the physical cycle C_n.
	Ring = ring.Ring
	// Cycle is a DRC-routable cycle: a vertex set traversed in ring order.
	Cycle = cover.Cycle
	// Covering is a family of cycles intended to cover a demand.
	Covering = cover.Covering
	// Composition is a C3/C4 cycle mix.
	Composition = cover.Composition
	// Instance is a named demand set.
	Instance = instance.Instance
	// Network is a planned WDM design (subnetworks + wavelengths).
	Network = wdm.Network
	// CostModel weights the paper's cost drivers.
	CostModel = wdm.CostModel
	// Simulator drives failure scenarios.
	Simulator = survive.Simulator
	// FailureReport summarises one failure scenario.
	FailureReport = survive.FailureReport
	// SweepOptions configures a k-failure sweep (multiplicity, sampling,
	// budget).
	SweepOptions = survive.SweepOptions
	// SweepResult aggregates a k-failure sweep.
	SweepResult = survive.SweepResult
	// ScenarioReport is the structured outcome of one failure scenario.
	ScenarioReport = survive.ScenarioReport
	// LinkCriticality attributes sweep loss to a physical link.
	LinkCriticality = survive.LinkCriticality
	// Link identifies a ring link by its lower endpoint.
	Link = ring.Link
	// Delta is one bounded change to an instance's demand (add/remove a
	// request, fail a pair, set a multiplicity) — the unit of incremental
	// replanning consumed by Planner.PlanDelta.
	Delta = instance.Delta
)

// NewRing returns the physical ring C_n (n ≥ 3).
func NewRing(n int) (Ring, error) { return ring.New(n) }

// NewCycle builds a DRC cycle on the given ring from a vertex set.
func NewCycle(r Ring, verts ...int) (Cycle, error) { return cover.NewCycle(r, verts...) }

// NewCovering returns an empty covering over r, for hand-built designs.
func NewCovering(r Ring) *Covering { return cover.NewCovering(r) }

// Rho returns ρ(n), the paper's optimal number of cycles for K_n over C_n.
func Rho(n int) int { return cover.Rho(n) }

// LowerBound returns the implemented lower bound on ρ(n) (arc-length
// counting plus the even-p refinement); it coincides with Rho for all n.
func LowerBound(n int) int { return cover.LowerBound(n) }

// TheoremComposition returns the C3/C4 mix stated by the paper's theorems.
func TheoremComposition(n int) (Composition, bool) { return cover.TheoremComposition(n) }

// AllToAll returns the total-exchange instance K_n.
func AllToAll(n int) Instance { return instance.AllToAll(n) }

// LambdaAllToAll returns the λK_n instance.
func LambdaAllToAll(n, lambda int) Instance { return instance.Lambda(n, lambda) }

// Hub returns the hubbed instance (all nodes to one hub).
func Hub(n, hub int) Instance { return instance.Hub(n, hub) }

// Neighbors returns the adjacency instance.
func Neighbors(n int) Instance { return instance.Neighbors(n) }

// RandomInstance samples a reproducible random symmetric demand. Finite
// densities outside [0, 1] are clamped; non-finite densities (NaN, ±Inf)
// are rejected.
func RandomInstance(n int, density float64, seed int64) (Instance, error) {
	return instance.RandomSymmetric(n, density, seed)
}

// ParseInstance builds an instance from the compact demand spec shared by
// the CLI tools and the cycled service. Ring families: alltoall |
// lambda:<k> | hub:<node> | neighbors | random:<density>:<seed>.
// General-topology families (bridgeless host graphs covered under the
// shortest-cycle-cover objective): petersen | blanusa:<1|2> |
// flower:<k> | prism:<k> | cubic:<seed> | edges:<u-v,...> |
// adj:<nbrs;...>.
func ParseInstance(n int, spec string) (Instance, error) {
	return instance.Parse(n, spec)
}

// ParseDelta parses the compact delta spec shared by the CLI tools and
// the cycled service: add:<u>:<v> | remove:<u>:<v> | fail:<u>:<v> |
// set:<u>:<v>:<m>.
func ParseDelta(spec string) (Delta, error) { return instance.ParseDelta(spec) }

// CoverAllToAll constructs a DRC covering of K_n. optimal reports that the
// covering provably has ρ(n) cycles (always true for odd n; true for even
// n within the search range documented in DESIGN.md). It is the
// paper-level helper and cannot be cancelled; Planner.CoverAllToAll is
// the cached path whose searches abort when its context fires.
//
//cyclecover:ctxfree paper-level helper; Planner.CoverAllToAll is the cancellable path
func CoverAllToAll(n int) (cv *Covering, optimal bool, err error) {
	res, err := construct.AllToAllCtx(context.Background(), n)
	if err != nil {
		return nil, false, err
	}
	return res.Covering, res.Optimal, nil
}

// CoverInstance constructs a valid covering for an arbitrary instance
// with the default strategy, the same one the cached Planner and the
// cycled service use: over C_n, the closed-form machinery for uniform
// λK_n demands (the paper's optimal constructions for K_n, the
// λ-composition beyond) and the greedy constructor otherwise.
// General-topology instances (petersen, blanusa:<w>, flower:<k>,
// prism:<k>, cubic:<seed>, edges:<...>, adj:<...>) are covered by the
// shortest-cycle-cover pipeline instead, minimising total edge count.
// Cancellation or a deadline aborts the underlying construction search
// promptly and returns ctx's error, never a partial covering.
func CoverInstance(ctx context.Context, in Instance) (*Covering, error) {
	if in.IsZero() {
		return nil, fmt.Errorf("cyclecover: instance %q has no demand graph (zero-value instance?)", in.Name)
	}
	out, err := construct.Auto{}.Solve(ctx, in, construct.Options{})
	if err != nil {
		return nil, err
	}
	return out.Covering, nil
}

// Strategies lists the selectable construction strategy names: the
// registry in priority order ("closed-form", "exact", "repair",
// "greedy" for rings; "scc-colour", "scc-exact", "scc-kcycle",
// "scc-greedy" for general hosts) plus "portfolio", which races them
// under one context and returns a deterministic winner (lowest cost,
// ties toward the earliest registry entry — exactly the default
// strategy's result wherever the closed forms apply).
func Strategies() []string { return construct.Strategies() }

// CoverInstanceStrategy constructs a covering with the named strategy
// (see Strategies), uncached. A strategy that does not address the
// instance's demand class (e.g. "exact" on a hub demand) returns an
// error; "portfolio" always succeeds on demands greedy can serve.
// Cancellation semantics match CoverInstance.
func CoverInstanceStrategy(ctx context.Context, in Instance, strategy string) (*Covering, error) {
	if in.IsZero() {
		return nil, fmt.Errorf("cyclecover: instance %q has no demand graph (zero-value instance?)", in.Name)
	}
	st, ok := construct.LookupStrategy(strategy)
	if !ok {
		return nil, fmt.Errorf("cyclecover: unknown strategy %q (have %v)", strategy, construct.Strategies())
	}
	out, err := st.Solve(ctx, in, construct.Options{})
	if err != nil {
		return nil, err
	}
	return out.Covering, nil
}

// Verify checks that cv is a valid covering of the instance. For ring
// instances: every cycle routable edge-disjointly on C_n, every request
// covered at least its multiplicity. For general-topology instances the
// walk verifier runs instead: every cycle a closed walk along host
// edges, every host edge covered. A nil covering or a zero-value
// instance (nil demand) is reported as an error, never a panic.
func Verify(cv *Covering, in Instance) error {
	if in.IsGeneral() {
		return cover.VerifyGeneral(cv, in.Host)
	}
	return cover.Verify(cv, in.Demand)
}

// VerifyOptimalAllToAll additionally checks |cv| = ρ(n).
func VerifyOptimalAllToAll(cv *Covering) error { return cover.VerifyOptimal(cv) }

// SCCLowerBound returns the provable shortest-cycle-cover lower bound
// max(m, Σ_v ⌈deg(v)/2⌉) for a general-topology instance's host graph,
// and 0 for ring instances (whose objective is the cycle count, bounded
// by Rho).
func SCCLowerBound(in Instance) int {
	if !in.IsGeneral() {
		return 0
	}
	return cover.SCCLowerBound(in.Host)
}

// SnarkSCCUpperBound returns the literature upper bound 4/3·m + c on the
// shortest cycle cover of a snark with m edges (Brinkmann, Goedgebeur,
// Hägglund, Markström: every snark on ≤ 36 vertices is covered within
// 4/3·m + 1, with the Petersen graph the unique one needing the +1).
func SnarkSCCUpperBound(m int) int { return cover.SnarkSCCUpperBound(m) }

// PlanWDM builds the optical design: one subnetwork per cycle with working
// and spare wavelengths, demand assignment, and cost accounting. Nil
// coverings and zero-value instances are errors, not panics. WDM
// planning assigns wavelengths to ring links; general-topology
// instances are rejected.
func PlanWDM(cv *Covering, in Instance) (*Network, error) {
	if in.IsGeneral() {
		return nil, fmt.Errorf("cyclecover: WDM planning applies to ring instances only, %q is general-topology", in.Name)
	}
	return wdm.Plan(cv, in.Demand)
}

// DefaultCostModel is the default weighting of the paper's cost drivers.
func DefaultCostModel() CostModel { return wdm.DefaultCostModel }

// NewSimulator wraps a planned network for failure drills.
func NewSimulator(nw *Network) *Simulator { return survive.NewSimulator(nw) }

// Describe returns a short human-readable summary of a covering.
func Describe(cv *Covering) string {
	s := cv.Summarize()
	return fmt.Sprintf("covering of C_%d: %d cycles (%d C3, %d C4, %d longer), %d slots, slack %d",
		s.N, s.Cycles, s.Triangles, s.Quads, s.Longer, s.Slots, s.Slack)
}
