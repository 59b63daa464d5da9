// This file is the shortest-cycle-cover (SCC) strategy family: the
// general-topology counterpart of the ring constructors. A general
// instance carries an arbitrary bridgeless host graph, every host edge
// must lie on some chosen cycle of the host, and the objective is the
// total cover length Σ|C_i| — the quantity the literature bounds by
// 7/5·m for bridgeless cubic graphs and 4/3·m + c for snarks.
//
// Four members join the portfolio, in this order:
//
//   - scc-colour (scc_colour.go): on a simple cubic host, the two
//     2-factors of a 3-edge-colouring — a cover of length 2n, optimal by
//     the vertex-visit bound alone. Refuses snarks, non-cubic hosts and
//     multigraphs.
//   - scc-exact: anytime branch-and-bound over the host's enumerated
//     simple cycles with an edge-bitmask state (hosts up to 64 distinct
//     edges), seeded with the greedy incumbent, pruned by the vertex
//     visit bound Σ_v ⌈ucdeg(v)/2⌉ and the portfolio bound.
//   - scc-kcycle: the restricted/k-cycle approximation family (Manthey;
//     Tang & Diao): greedy maximum-coverage over cycles of length at
//     most KCycleMaxLen only. Drops out when short cycles cannot cover.
//   - scc-greedy: the universal fallback — walk every uncovered edge
//     around a shortest cycle through it (BFS with the edge removed);
//     bridgelessness guarantees such a cycle exists.
//
// All four refuse ring instances (ErrNotApplicable), exactly as the
// ring members refuse general ones, so the portfolio composes the two
// families without cross-talk.
package construct

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// MethodSCC marks coverings produced by the shortest-cycle-cover
// strategies (colouring, exact, k-cycle-restricted, or greedy;
// Outcome.Strategy carries the member).
const MethodSCC Method = "shortest-cycle-cover"

// CoverCost is the objective a covering is ranked by: cycle count for
// ring instances (the paper's ρ(n) objective), total cover length for
// general-topology instances (the SCC objective). The portfolio and
// GeneralSCCCtx break ties on this cost toward the lowest registry
// index.
func CoverCost(in instance.Instance, cv *cover.Covering) int {
	if in.IsGeneral() {
		return cv.TotalLength()
	}
	return cv.Size()
}

// GeneralSCCCtx is the general-topology half of Auto: it runs
// scc-colour, scc-exact, scc-kcycle and scc-greedy in registry order and
// keeps the cheapest cover (total length, ties to the earliest member).
// It stops after the first Optimal outcome: a later member can at best
// tie it, and ties go to the earlier one. Unlike the portfolio's loop, a
// member's real error (anything but a refusal) fails the call, and the
// members run inside the caller's one panic boundary rather than each
// behind SafeSolve. The portfolio determinism pin asserts the portfolio
// returns bit-identically this winner for every general family.
func GeneralSCCCtx(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if !in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: GeneralSCCCtx needs a general-topology instance, got %q", ErrNotApplicable, in.Name)
	}
	members := []Strategy{SCCColour{}, SCCExact{}, SCCKCycle{}, SCCGreedy{}}
	var best Outcome
	bestCost := -1
	for _, m := range members {
		out, err := m.Solve(ctx, in, opts)
		if err != nil {
			if errors.Is(err, ErrNotApplicable) {
				continue
			}
			if ctx.Err() != nil {
				return Outcome{}, ctx.Err()
			}
			return Outcome{}, err
		}
		if c := out.Covering.TotalLength(); bestCost == -1 || c < bestCost {
			best, bestCost = out, c
		}
		if out.Optimal {
			break
		}
	}
	if bestCost == -1 {
		return Outcome{}, fmt.Errorf("construct: no scc strategy produced a cover for %q", in.Name)
	}
	return best, nil
}

// MaxSCCEdges caps the host size scc-exact addresses: the search state
// is a single uint64 edge bitmask.
const MaxSCCEdges = 64

// MaxSCCCycles caps the cycle enumeration feeding scc-exact and
// scc-kcycle; a host whose cycle space explodes past the cap makes the
// enumerating strategies drop out rather than stall the portfolio. The
// snark families stay below it, but random cubic hosts do not: every
// seed tried at n = 32…40 (m = 48…60) crossed it, none at n ≤ 30, so
// they meet this wall well before the 64-edge one.
const MaxSCCCycles = 50_000

// DefaultSCCNodeLimit bounds scc-exact branch-and-bound expansions when
// Options.NodeLimit is zero. The committed snark instances complete
// their searches far below it; it converts an adversarial edge-list host
// into an anytime (greedy-seeded) answer instead of a stall.
const DefaultSCCNodeLimit = 2_000_000

// KCycleMaxLen is the cycle-length cap of the restricted scc-kcycle
// strategy. Length 8 covers the snark families' short-cycle structure
// (girth 5 plus the 6- and 8-cycles a cover actually uses) while keeping
// the restricted enumeration tiny.
const KCycleMaxLen = 8

// errCycleCap is the enumeration's verdict on a host with more than
// MaxSCCCycles simple cycles in range.
var errCycleCap = fmt.Errorf("%w: cycle enumeration exceeds %d cycles", ErrNotApplicable, MaxSCCCycles)

// sccCycle is one enumerated simple cycle of the host: its vertices in
// cover.WalkCycle's canonical order and its distinct-edge bitmask. The
// cycle's length is len(verts).
type sccCycle struct {
	verts []int
	mask  uint64
}

// sccHost adds to a host of at most 64 distinct edges the masks the
// enumerating strategies search over: edge id i, in the host's ascending
// (u, v) order, is mask bit i, and inc[v] is the mask of v's edges.
type sccHost struct {
	host *graph.Host
	n, m int
	inc  []uint64
}

func indexHost(host *graph.Host) *sccHost {
	n := host.N()
	h := &sccHost{host: host, n: n, m: host.DistinctEdges(), inc: make([]uint64, n)}
	for v := range h.inc {
		_, ids := host.Adj(v)
		for _, id := range ids {
			h.inc[v] |= 1 << uint(id)
		}
	}
	return h
}

// enumerateCycles lists every simple cycle of the host's simple skeleton
// with length ≤ maxLen, in deterministic order (by root vertex, then DFS
// order over ascending neighbour lists), each cycle once. The root is
// each cycle's smallest vertex and path[1] < path[last] picks one of its
// two directions, so a path that closes is already in canonical form.
// It returns errCycleCap when the count exceeds MaxSCCCycles, and the
// context's error when ctx is done mid-enumeration.
func enumerateCycles(ctx context.Context, h *sccHost, maxLen int) ([]sccCycle, error) {
	e := &sccEnum{h: h, maxLen: maxLen, path: make([]int, 0, maxLen), onPath: make([]bool, h.n), done: ctx.Done()}
	for e.root = 0; e.root < h.n; e.root++ {
		e.path = append(e.path[:0], e.root)
		if !e.dfs(e.root, 0) {
			if e.cancelled {
				return nil, ctx.Err()
			}
			return nil, errCycleCap
		}
	}
	return e.out, nil
}

// sccEnum is the state of one enumerateCycles run.
type sccEnum struct {
	h         *sccHost
	maxLen    int
	root      int
	path      []int
	onPath    []bool
	out       []sccCycle
	steps     int
	done      <-chan struct{}
	cancelled bool
}

// dfs extends the path, which ends at v and uses the edges in pathMask.
// It polls done every 1024 steps. false stops the enumeration: the
// cycle cap was exceeded, or the context is done (cancelled).
func (e *sccEnum) dfs(v int, pathMask uint64) bool {
	if e.steps&1023 == 0 {
		select {
		case <-e.done: // nil for a background context: never fires
			e.cancelled = true
			return false
		default:
		}
	}
	e.steps++
	nbrs, ids := e.h.host.Adj(v)
	for i, w32 := range nbrs {
		w, edge := int(w32), uint64(1)<<uint(ids[i])
		if w == e.root && len(e.path) >= cover.MinCycleLen && e.path[1] < e.path[len(e.path)-1] {
			// Closing edge; path[1] < last dedupes the two directions.
			if len(e.out) >= MaxSCCCycles {
				return false
			}
			e.out = append(e.out, sccCycle{verts: append([]int(nil), e.path...), mask: pathMask | edge})
		}
		if w <= e.root || e.onPath[w] || len(e.path) >= e.maxLen {
			continue // root stays the cycle's minimum vertex
		}
		e.path = append(e.path, w)
		e.onPath[w] = true
		ok := e.dfs(w, pathMask|edge)
		e.onPath[w] = false
		e.path = e.path[:len(e.path)-1]
		if !ok {
			return false
		}
	}
	return true
}

// sccGreedyCover walks each uncovered host edge (ascending order) around
// a shortest cycle through it: BFS from one endpoint to the other with
// the edge itself barred. Bridgelessness guarantees the BFS connects.
func sccGreedyCover(ctx context.Context, host *graph.Host) (*cover.Covering, error) {
	n, m := host.N(), host.DistinctEdges()
	cv := cover.NewGeneralCovering(n)
	covered := make([]bool, m) // by edge id
	prev := make([]int32, n)   // BFS parent: -1 at the root, -2 unreached
	via := make([]int32, n)    // id of the edge to the BFS parent
	queue := make([]int32, 0, n)
	walk := make([]int, 0, n)
	for id := range covered {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if covered[id] {
			continue
		}
		e := host.Edge(id)
		u, v := int32(e.U), int32(e.V)
		// BFS u → v avoiding the direct edge.
		for i := range prev {
			prev[i] = -2
		}
		prev[u] = -1
		queue = append(queue[:0], u)
		for len(queue) > 0 && prev[v] == -2 {
			x := queue[0]
			queue = queue[1:]
			nbrs, ids := host.Adj(int(x))
			for i, w := range nbrs {
				if int(ids[i]) == id {
					continue
				}
				if prev[w] == -2 {
					prev[w], via[w] = x, ids[i]
					queue = append(queue, w)
				}
			}
		}
		if prev[v] == -2 {
			return nil, fmt.Errorf("construct: no cycle through edge %v — host has a bridge", e)
		}
		walk = walk[:0]
		covered[id] = true
		for x := v; x != -1; x = prev[x] {
			walk = append(walk, int(x))
			if prev[x] != -1 {
				covered[via[x]] = true
			}
		}
		c, err := cover.WalkCycle(walk)
		if err != nil {
			return nil, err
		}
		cv.Add(c)
	}
	return cv, nil
}

// SCCGreedy is the universal general-topology fallback: a valid cover
// for every admitted (bridgeless) host, never optimal, never dropping
// out. The general counterpart of GreedySweep.
type SCCGreedy struct{}

// Name implements Strategy.
func (SCCGreedy) Name() string { return "scc-greedy" }

// Solve implements Strategy.
func (SCCGreedy) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if !in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: scc-greedy needs a general-topology instance, got %q", ErrNotApplicable, in.Name)
	}
	cv, err := sccGreedyCover(ctx, in.Host)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Covering: cv, Method: MethodSCC, Strategy: "scc-greedy"}, nil
}

// SCCKCycle is the restricted-cycle approximation family: it covers
// using only cycles of length ≤ KCycleMaxLen, picked by deterministic
// greedy maximum coverage (most newly covered edges, then shortest, then
// lowest enumeration index). It drops out of the portfolio when some
// host edge lies on no short cycle.
type SCCKCycle struct{}

// Name implements Strategy.
func (SCCKCycle) Name() string { return "scc-kcycle" }

// Solve implements Strategy.
func (SCCKCycle) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	if !in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: scc-kcycle needs a general-topology instance, got %q", ErrNotApplicable, in.Name)
	}
	host := in.Host
	if host.DistinctEdges() > MaxSCCEdges {
		return Outcome{}, fmt.Errorf("%w: scc-kcycle addresses hosts with at most %d distinct edges, got %d", ErrNotApplicable, MaxSCCEdges, host.DistinctEdges())
	}
	h := indexHost(host)
	cycles, err := enumerateCycles(ctx, h, KCycleMaxLen)
	if err != nil {
		return Outcome{}, err
	}
	cv, ok := greedySetCover(h.n, cycles, h.m)
	if !ok {
		return Outcome{}, fmt.Errorf("%w: some host edge lies on no cycle of length ≤ %d", ErrNotApplicable, KCycleMaxLen)
	}
	return Outcome{Covering: cv, Method: MethodSCC, Strategy: "scc-kcycle"}, nil
}

// greedySetCover is deterministic maximum-coverage over an enumerated
// cycle list: repeatedly pick the cycle covering the most uncovered
// edges (ties to the shorter cycle, then the lower enumeration index)
// until every edge bit is covered. ok is false when the list cannot
// cover.
func greedySetCover(n int, cycles []sccCycle, m int) (*cover.Covering, bool) {
	full := fullMask(m)
	var covered uint64
	cv := cover.NewGeneralCovering(n)
	for covered != full {
		best, bestNew := -1, 0
		for i, c := range cycles {
			nw := bits.OnesCount64(c.mask &^ covered)
			if nw > bestNew || (nw == bestNew && nw > 0 && len(c.verts) < len(cycles[best].verts)) {
				best, bestNew = i, nw
			}
		}
		if best == -1 || bestNew == 0 {
			return nil, false
		}
		cv.Add(cover.MustWalkCycle(cycles[best].verts...))
		covered |= cycles[best].mask
	}
	return cv, true
}

// fullMask returns the m-bit all-ones mask.
func fullMask(m int) uint64 {
	if m >= 64 {
		return math.MaxUint64
	}
	return (1 << uint(m)) - 1
}

// SCCExact is anytime branch-and-bound for the shortest cycle cover:
// state is the covered-edge bitmask, branching picks the lowest
// uncovered edge and tries every cycle through it (shortest first), the
// lower bound is the vertex visit count Σ_v ⌈ucdeg(v)/2⌉ (which at the
// root reproduces the literature's m + n/2 cubic bound), and the
// incumbent starts at the scc-greedy cover so a node-limited or
// bound-cut search still returns a valid cover. Optimal is claimed only
// when the search ran to completion with no cut below the incumbent
// caused by the portfolio bound.
//
// The search is serial and deterministic. Proven hosts finish in
// milliseconds, but a host that spends the whole DefaultSCCNodeLimit
// takes 0.1–0.25 s (random cubic hosts with n = 26…30 on a 2-vCPU Intel
// Xeon, EXPERIMENTS.md §C).
type SCCExact struct{}

// Name implements Strategy.
func (SCCExact) Name() string { return "scc-exact" }

// Solve implements Strategy.
func (SCCExact) Solve(ctx context.Context, in instance.Instance, opts Options) (Outcome, error) {
	if !in.IsGeneral() {
		return Outcome{}, fmt.Errorf("%w: scc-exact needs a general-topology instance, got %q", ErrNotApplicable, in.Name)
	}
	host := in.Host
	if host.DistinctEdges() > MaxSCCEdges {
		return Outcome{}, fmt.Errorf("%w: scc-exact addresses hosts with at most %d distinct edges, got %d", ErrNotApplicable, MaxSCCEdges, host.DistinctEdges())
	}
	h := indexHost(host)
	cycles, err := enumerateCycles(ctx, h, h.n)
	if err != nil {
		return Outcome{}, err
	}
	seed, err := sccGreedyCover(ctx, host)
	if err != nil {
		return Outcome{}, err
	}
	// A second incumbent candidate: greedy set-cover over the short
	// cycles (what scc-kcycle would build). On the snark families it is
	// markedly shorter than the BFS walk cover, and a tight incumbent is
	// what makes the branch-and-bound prune.
	var short []sccCycle
	for _, c := range cycles {
		if len(c.verts) <= KCycleMaxLen {
			short = append(short, c)
		}
	}
	if alt, ok := greedySetCover(h.n, short, h.m); ok && alt.TotalLength() < seed.TotalLength() {
		seed = alt
	}
	// The literature upper bound doubles as an aggressive initial prune
	// limit: the optimum of every committed family lies below it, so
	// capping exploration there shrinks the tree by orders of magnitude
	// (on the flower snarks, the root lower bound m + n/2 sits one or two
	// slots under it). If a pathological host's optimum exceeds the cap,
	// the search returns the greedy seed un-improved and simply does not
	// claim optimality — the cap can cost the claim, never correctness.
	art := cover.GeneralSCCUpperBound(host.M())
	if host.IsCubic() {
		art = cover.SnarkSCCUpperBound(host.M())
	}
	s := &sccSearch{
		n:       h.n,
		inc:     h.inc,
		full:    fullMask(h.m),
		cycles:  cycles,
		byEdge:  cyclesByEdge(cycles, h.m),
		limit:   opts.NodeLimit,
		bound:   opts.Bound,
		art:     art + 1,
		done:    ctx.Done(),
		best:    seed,
		bestLen: seed.TotalLength(),
		minCut:  math.MaxInt,
	}
	if s.limit <= 0 {
		s.limit = DefaultSCCNodeLimit
	}
	s.expand(0, 0)
	return Outcome{
		Covering: s.best,
		Method:   MethodSCC,
		// Complete, and no artificial or portfolio cut fell below the
		// final incumbent: every pruned subtree provably held only covers
		// at least as long.
		Optimal:  !s.stop && s.bestLen <= s.minCut,
		Strategy: "scc-exact",
	}, nil
}

// cyclesByEdge indexes cycle IDs by covered edge bit, each list sorted
// shortest-cycle-first (stable on enumeration index): the branching
// order of the search.
func cyclesByEdge(cycles []sccCycle, m int) [][]int32 {
	// Size each list up front: grown by append, the lists of a host near
	// MaxSCCCycles leave several megabytes of garbage per request.
	count := make([]int, m)
	maxLen := 0
	for _, c := range cycles {
		for b := 0; b < m; b++ {
			if c.mask&(1<<uint(b)) != 0 {
				count[b]++
			}
		}
		maxLen = max(maxLen, len(c.verts))
	}
	byEdge := make([][]int32, m)
	for b := range byEdge {
		byEdge[b] = make([]int32, 0, count[b])
	}
	// One pass per length: enumeration order is deterministic, so
	// appending all length-l cycles before length-(l+1) ones yields the
	// shortest-first stable order without a sort call.
	for l := cover.MinCycleLen; l <= maxLen; l++ {
		for i, c := range cycles {
			if len(c.verts) != l {
				continue
			}
			for b := 0; b < m; b++ {
				if c.mask&(1<<uint(b)) != 0 {
					byEdge[b] = append(byEdge[b], int32(i))
				}
			}
		}
	}
	return byEdge
}

// sccSearch is the mutable state of one branch-and-bound run.
type sccSearch struct {
	n      int
	inc    []uint64 // per-vertex incident-edge masks
	full   uint64   // every host edge covered
	cycles []sccCycle
	byEdge [][]int32
	limit  int64
	nodes  int64
	bound  int // the portfolio bound (Options.Bound); 0 = none
	done   <-chan struct{}
	// art is the artificial exploration cap (literature bound + 1): no
	// subtree that cannot beat it is entered.
	art     int
	chosen  []int32
	best    *cover.Covering
	bestLen int
	// minCut is the smallest effective limit used in a cut that was
	// tighter than the incumbent of the moment (artificial cap or
	// portfolio bound). Such a cut may hide covers between the limit and
	// the incumbent, so optimality is claimed only when the final
	// incumbent is ≤ every such limit.
	minCut int
	stop   bool
}

// lowerBound is the additional-length bound Σ_v ⌈ucdeg(v)/2⌉ for the
// uncovered edge set, ucdeg(v) being v's uncovered edge count: covering
// an edge incident to v spends a visit of v, and one visit serves at
// most two of v's uncovered edges.
func (s *sccSearch) lowerBound(covered uint64) int {
	lb := 0
	for _, inc := range s.inc {
		lb += (bits.OnesCount64(inc&^covered) + 1) / 2
	}
	return lb
}

func (s *sccSearch) expand(covered uint64, curLen int) {
	if s.stop {
		return
	}
	s.nodes++
	if s.nodes > s.limit {
		s.stop = true
		return
	}
	select {
	case <-s.done: // nil for a background context: never fires
		s.stop = true
		return
	default:
	}
	if covered == s.full {
		if curLen < s.bestLen {
			s.bestLen = curLen
			cv := cover.NewGeneralCovering(s.n)
			for _, id := range s.chosen {
				cv.Add(cover.MustWalkCycle(s.cycles[id].verts...))
			}
			s.best = cv
		}
		return
	}
	// Effective limit: strictly beat the incumbent, the artificial cap,
	// and any external (portfolio) bound. A cut at a limit below the
	// incumbent of the moment may hide covers between the two; record the
	// limit so the Optimal claim can check the final incumbent cleared it.
	limit, tightened := s.bestLen, false
	if s.art < limit {
		limit, tightened = s.art, true
	}
	if s.bound > 0 && s.bound < limit {
		limit, tightened = s.bound, true
	}
	lb := s.lowerBound(covered)
	if curLen+lb >= limit {
		if tightened && limit < s.minCut {
			s.minCut = limit
		}
		return
	}
	// Branch on the lowest uncovered edge: every cover must serve it, and
	// the fixed order keeps sibling subtrees disjoint in a way that the
	// transposition-free search benefits from. Children recompute their
	// own bound first thing, so no per-child pruning is repeated here.
	b := bits.TrailingZeros64(^covered & s.full)
	for _, id := range s.byEdge[b] {
		c := s.cycles[id]
		s.chosen = append(s.chosen, id)
		s.expand(covered|c.mask, curLen+len(c.verts))
		s.chosen = s.chosen[:len(s.chosen)-1]
		if s.stop {
			return
		}
	}
}
