package construct

import (
	"context"
	"sort"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// ExactOptions configures the branch-and-bound solver.
type ExactOptions struct {
	// Budget is the maximum number of cycles allowed. A search at Budget =
	// ρ(n) is constructive; a completed search at ρ(n)−1 certifies the
	// lower bound.
	Budget int
	// MaxLen caps cycle length; 0 means unbounded (needed for
	// infeasibility proofs, since an optimal adversary may use any cycle
	// length). The paper's constructions need only 3 and 4.
	MaxLen int
	// NodeLimit caps search nodes for determinism (no wall clocks); 0
	// applies DefaultNodeLimit.
	NodeLimit int64
	// Bound, when positive, is an upper bound on useful covering size:
	// the search only pursues coverings strictly smaller than it; zero
	// means no bound. The portfolio feeds each member the best size
	// already achieved by higher-priority members. A search cut by the
	// bound reports Complete=false — the cut is relative to another
	// member's result, not an exhaustion proof.
	Bound int
	// Scratch, when non-nil, supplies reusable search state — the
	// residual coverage matrix, the per-depth candidate arenas, the
	// precomputed distance tables and the residual transposition table —
	// so a warm repeated search allocates nothing beyond its solution. A
	// Scratch is owned by one search at a time: it is not safe for
	// concurrent use. The search result is bit-identical with or without
	// a Scratch (the memo table is epoch-stamped: every search starts
	// from an empty table, so reuse never changes node counts).
	Scratch *ExactScratch
	// DisableSymmetry turns off orbit pruning: candidates are enumerated
	// exhaustively instead of up to the automorphisms of the residual
	// demand. A symmetry-pruned search reaches the same cost and the
	// same Complete verdict as the unpruned one (pinned by the
	// equivalence property test) but may return a different — symmetric —
	// representative covering, and explores far fewer nodes. For
	// ablations and the equivalence tests.
	DisableSymmetry bool
	// DisableMemo turns off the residual transposition table. Because
	// memo hits only ever replace subtrees already proven infeasible,
	// the search visits the same solutions in the same order with or
	// without it: covering and Complete are bit-identical whenever both
	// runs finish within NodeLimit; only Nodes changes. For ablations
	// and the equivalence tests.
	DisableMemo bool
}

// ExactScratch is caller-owned reusable state for ExactCtx. The
// zero value is ready to use; see ExactOptions.Scratch for the ownership
// contract.
type ExactScratch struct {
	st exactState
}

// NewExactScratch returns an empty scratch, ready to thread through
// ExactOptions.Scratch.
func NewExactScratch() *ExactScratch { return &ExactScratch{} }

// DefaultNodeLimit bounds exact searches that did not specify a limit.
const DefaultNodeLimit = 40_000_000

// ExactOutcome reports the result of an exact search.
type ExactOutcome struct {
	// Covering is a valid DRC-covering of K_n within Budget cycles, or nil
	// if none was found.
	Covering *cover.Covering
	// Complete is true when the search space was exhausted, making a nil
	// Covering a proof of infeasibility at this Budget (for the given
	// MaxLen; with MaxLen 0 it is unconditional).
	Complete bool
	// Nodes is the number of candidate applications explored.
	Nodes int64
}

// ExactCtx searches for a DRC-covering of K_n over C_n with at most
// opts.Budget cycles, by branch and bound:
//
//   - branch on the uncovered pair with the largest short-arc distance
//     (diameters are the scarcest resource: no cycle covers two);
//   - candidates covering pair {u,v} are the vertex sets {u,v} ∪ T with T
//     a non-empty subset of the interior of one of the two arcs between u
//     and v (the other arc's interior must be empty for {u,v} to be
//     cyclically consecutive);
//   - prune when cyclesLeft·n < Σ dist(uncovered) (the arc-length bound
//     applied to the residual instance) or when cyclesLeft is below the
//     number of uncovered diameters.
//
// The search state is flat and allocation-free in steady state: residual
// coverage lives in a dense pair matrix that is covered and uncovered
// incrementally on descent and backtrack (never cloned), and candidate
// enumeration writes into per-depth arenas that are reused across the
// whole search (and across searches, via ExactOptions.Scratch).
//
// The search is one serial depth-first pass: unless a Bound or ctx cuts
// it, its covering, Complete verdict and node count depend only on n and
// opts, never on load. Concurrent calls are safe as long as they do not
// share a Scratch.
//
// Cancellation (or a deadline) is honoured at every branch boundary, so
// the search stops within one node expansion of ctx firing. An
// interrupted search reports Complete=false — a nil Covering after
// cancellation is never an infeasibility proof.
func ExactCtx(ctx context.Context, n int, opts ExactOptions) ExactOutcome {
	r := ring.MustNew(n)
	if opts.NodeLimit == 0 {
		opts.NodeLimit = DefaultNodeLimit
	}
	s := &exactState{}
	if opts.Scratch != nil {
		s = &opts.Scratch.st
	}
	s.reset(r, n, opts)
	s.done = ctx.Done()
	complete := s.search(0)
	return s.outcome(complete)
}

// ExactOptimal runs ExactCtx at Budget = ρ(n) with the paper's cycle
// lengths (MaxLen 4). Per Theorems 1–2 a covering always exists there;
// ok reports whether the solver found it within the node limit before
// ctx fired, so ok=false also covers cancellation — check ctx.Err() to
// tell the two apart.
func ExactOptimal(ctx context.Context, n int, nodeLimit int64) (*cover.Covering, bool) {
	out := ExactCtx(ctx, n, ExactOptions{Budget: cover.Rho(n), MaxLen: 4, NodeLimit: nodeLimit})
	return out.Covering, out.Covering != nil
}

// candidate is one branch choice: a cycle vertex set stored in the
// owning depth's arena at [off, off+k) (its covered pair indices at the
// same offsets of the pair arena), plus its branching score.
type candidate struct {
	off, k int
	gain   int // uncovered pairs this candidate would cover
	dist   int // total short-arc distance of newly covered pairs
}

// depthScratch is the per-depth enumeration arena: candidate metadata,
// the flat vertex/pair storage they reference, the undo log of the
// candidate currently applied at this depth, and the enumeration
// scratch. Reused across every visit to the depth.
type depthScratch struct {
	cands        []candidate
	verts        []int // candidate vertex sets, ring order, back to back
	pairs        []int // covered pair indices, same offsets as verts
	newly        []int // pair indices newly covered by the applied candidate
	side0, side1 []int // arc interiors of the branch pair
	cur          []int // subset enumeration scratch: chosen vertices
	curIdx       []int // subset enumeration scratch: chosen side indices
	sym          []int // orbit filter scratch: a candidate's image under a map
}

// sort.Interface over cands: most-constraining first — more uncovered
// pairs, then more distance, then lexicographic vertex order (a total
// order: candidate vertex sets at one node are distinct), so the
// enumeration order is deterministic regardless of sort stability.
func (ds *depthScratch) Len() int      { return len(ds.cands) }
func (ds *depthScratch) Swap(i, j int) { ds.cands[i], ds.cands[j] = ds.cands[j], ds.cands[i] }
func (ds *depthScratch) Less(i, j int) bool {
	a, b := ds.cands[i], ds.cands[j]
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	return lexLess(ds.verts[a.off:a.off+a.k], ds.verts[b.off:b.off+b.k])
}

// dihedralMap is one automorphism of the ring: a rotation x ↦ x+r or a
// reflection x ↦ r−x (indices mod n). The residual-automorphism search
// only ever considers dihedral maps — they are exactly the bijections
// preserving ring distances, so they preserve candidate structure,
// branching scores and every counting bound.
type dihedralMap struct {
	refl bool
	r    int
}

// memoEntry is one slot of the residual transposition table: the packed
// canonical residual key, the largest cycle budget proven infeasible for
// it, and the epoch stamp that scopes the proof to the search that made
// it. Entries are collision-checked: a lookup compares the full key, so
// a hash collision can never convert a different residual's proof into
// a bogus cut.
type memoEntry struct {
	key   graph.PairKey
	left  int32
	epoch uint32
}

// memoProbes is the open-addressing probe window: a lookup or store
// touches at most this many consecutive slots.
const memoProbes = 4

type exactState struct {
	r    ring.Ring
	n    int
	opts ExactOptions

	covered []bool  // pair u*n+v (u<v) → covered
	dist    []int32 // short-arc distance per pair index (precomputed)
	diam    []bool  // diameter flag per pair index (precomputed)
	rankOf  []int32 // pair index u*n+v (u<v) → triangular pair rank
	tablesN int     // ring size the dist/diam/rank tables were built for

	uncovered      int
	remainingDist  int
	uncoveredDiams int
	uncDeg         []int32 // per-vertex count of uncovered incident pairs
	sumCeilHalf    int     // Σ_v ⌈uncDeg[v]/2⌉, maintained incrementally

	// key is the packed canonical residual: bit = pair covered, in
	// ascending pair-rank order, flipped incrementally by apply/undo.
	key graph.PairKey
	// memo is the fixed-size residual transposition table; memoOn gates
	// every probe (false when the ring exceeds the key capacity or the
	// caller disabled it). epoch stamps entries so a reset invalidates
	// the whole table in O(1) without clearing it.
	memo     []memoEntry
	memoMask uint32
	memoOn   bool
	epoch    uint32

	// stab holds the verified automorphisms of the residual demand that
	// stabilize the current branch pair — at most 3 non-identity dihedral
	// maps (the pair stabilizer in D_n has order ≤ 4). Recomputed at
	// every node by computeStab.
	stab  [3]dihedralMap
	nstab int

	chosen   []candidate // chosen[d] applied at depth d, refs depths[d]
	depths   []depthScratch
	solution [][]int
	nodes    int64

	// done, when non-nil, is the context's cancellation channel, polled
	// at every branch boundary (countNode) so a cancel or deadline stops
	// the search within one node expansion.
	done <-chan struct{}
	// boundCuts counts subtrees cut by the portfolio bound (opts.Bound).
	// Any cut forfeits the outcome's completeness claim — it is relative
	// to another member's result, not an exhaustion proof — and a
	// subtree is admitted to the memo table only if it finished with no
	// new cuts inside it (see search), so memoized infeasibility is
	// always a genuine proof.
	boundCuts int64
}

// reset initializes the fully-uncovered search state for K_n, reusing
// every backing array that is already large enough. After the first
// search at a given n, a reset allocates nothing.
func (s *exactState) reset(r ring.Ring, n int, opts ExactOptions) {
	s.r, s.n, s.opts = r, n, opts
	nn := n * n
	if cap(s.covered) < nn {
		s.covered = make([]bool, nn)
	} else {
		s.covered = s.covered[:nn]
		clear(s.covered)
	}
	if s.tablesN != n {
		if cap(s.dist) < nn {
			s.dist = make([]int32, nn)
			s.diam = make([]bool, nn)
			s.rankOf = make([]int32, nn)
		} else {
			s.dist = s.dist[:nn]
			s.diam = s.diam[:nn]
			s.rankOf = s.rankOf[:nn]
		}
		rank := int32(0)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				s.dist[u*n+v] = int32(r.Dist(u, v))
				s.diam[u*n+v] = r.IsDiameter(u, v)
				s.rankOf[u*n+v] = rank
				rank++
			}
		}
		s.tablesN = n
	}
	s.uncovered, s.remainingDist, s.uncoveredDiams = 0, 0, 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			s.remainingDist += int(s.dist[u*n+v])
			s.uncovered++
			if s.diam[u*n+v] {
				s.uncoveredDiams++
			}
		}
	}
	if cap(s.uncDeg) < n {
		s.uncDeg = make([]int32, n)
	} else {
		s.uncDeg = s.uncDeg[:n]
	}
	for v := range s.uncDeg {
		s.uncDeg[v] = int32(n - 1)
	}
	s.sumCeilHalf = n * (n / 2) // n·⌈(n−1)/2⌉
	s.key.Clear()
	s.resetMemo(n, opts)
	s.nstab = 0
	// Pre-grow the per-depth arena list: enumeration happens only at
	// depths below Budget, so no dsAt call can reallocate s.depths while
	// a search holds a *depthScratch into it.
	for len(s.depths) < opts.Budget {
		s.depths = append(s.depths, depthScratch{})
	}
	s.chosen = s.chosen[:0]
	s.solution = nil
	s.nodes = 0
	s.done = nil
	s.boundCuts = 0
}

// memoBitsFor sizes the transposition table by ring size: small rings
// finish in few nodes and do not repay a large table, while the
// certification-scale searches want headroom before replacement kicks
// in. The size depends only on n, so scratch-vs-fresh searches stay
// node-for-node identical.
func memoBitsFor(n int) int {
	if n < 10 {
		return 10
	}
	if n < 12 {
		return 14
	}
	return 18
}

// resetMemo prepares the transposition table for a fresh search:
// eligible searches get a table sized for n with every prior entry
// invalidated by the epoch bump (an O(1) reset — the table is not
// cleared). Proofs never carry across searches, so a reused Scratch is
// bit-identical to a fresh one, node counts included.
func (s *exactState) resetMemo(n int, opts ExactOptions) {
	if opts.DisableMemo || graph.PairCount(n) > graph.MaxKeyPairs {
		s.memoOn = false
		return
	}
	size := 1 << memoBitsFor(n)
	if len(s.memo) != size {
		s.memo = make([]memoEntry, size)
		s.memoMask = uint32(size - 1)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 {
		// Epoch counter wrapped: stamps from 2³² searches ago could alias
		// as current, so pay for one real clear.
		clear(s.memo)
		s.epoch = 1
	}
	s.memoOn = true
}

// memoHit reports whether the current residual is already proven
// infeasible with `left` cycles remaining: a stored proof at the same
// residual with an equal or larger budget applies a fortiori. The probe
// is collision-checked against the full packed key.
//
//cyclecover:noalloc
func (s *exactState) memoHit(left int) bool {
	if !s.memoOn {
		return false
	}
	i := uint32(s.key.Hash()) & s.memoMask
	for p := uint32(0); p < memoProbes; p++ {
		e := &s.memo[(i+p)&s.memoMask]
		if e.epoch == s.epoch && e.left >= int32(left) && e.key == s.key {
			return true
		}
	}
	return false
}

// memoStore records that the current residual has no completion within
// `left` cycles. Callers must only invoke it for subtrees explored to
// exhaustion with no budget, context, cancellation or competitor-bound
// cut inside (see search): entries are proofs, never heuristics. Within
// the probe window, an existing entry for the same residual keeps the
// larger budget; otherwise the stalest slot — then the one holding the
// weakest proof (smallest left) — is replaced, deterministically.
//
//cyclecover:noalloc
func (s *exactState) memoStore(left int) {
	if !s.memoOn {
		return
	}
	i := uint32(s.key.Hash()) & s.memoMask
	victim := &s.memo[i&s.memoMask]
	for p := uint32(0); p < memoProbes; p++ {
		e := &s.memo[(i+p)&s.memoMask]
		if e.epoch == s.epoch && e.key == s.key {
			if int32(left) > e.left {
				e.left = int32(left)
			}
			return
		}
		if e.epoch != s.epoch {
			// Stale slot: free under the current epoch.
			victim = e
			break
		}
		if e.left < victim.left {
			victim = e
		}
	}
	victim.key = s.key
	victim.left = int32(left)
	victim.epoch = s.epoch
}

// dsAt returns the arena for a depth, growing the arena list on demand
// (existing arenas keep their storage).
func (s *exactState) dsAt(depth int) *depthScratch {
	for len(s.depths) <= depth {
		s.depths = append(s.depths, depthScratch{})
	}
	return &s.depths[depth]
}

// outcome packages the state's solution (if any) as an ExactOutcome.
func (s *exactState) outcome(complete bool) ExactOutcome {
	out := ExactOutcome{Complete: complete && s.boundCuts == 0, Nodes: s.nodes}
	if s.solution != nil {
		out.Covering = buildCovering(s.r, s.solution)
	}
	return out
}

// buildCovering materializes a solution's vertex sets as a canonical
// covering.
func buildCovering(r ring.Ring, sol [][]int) *cover.Covering {
	cv := cover.NewCovering(r)
	for _, verts := range sol {
		cv.Add(cover.MustCycle(r, verts...))
	}
	cv.Canonicalize()
	return cv
}

// pruned reports whether the subtree at depth is cut by the bounds; a
// pruned subtree counts as (vacuously) fully explored, except for cuts
// induced by the portfolio bound, which are counted in boundCuts and
// downgrade the outcome to Complete=false.
//
//cyclecover:noalloc
func (s *exactState) pruned(depth int) bool {
	if s.prunedAt(s.opts.Budget, depth) {
		return true
	}
	// Only coverings strictly smaller than an earlier member's size are
	// useful.
	if b := s.opts.Bound; b > 0 && b <= s.opts.Budget && s.prunedAt(b-1, depth) {
		s.boundCuts++
		return true
	}
	return false
}

// prunedAt applies the unconditional, admissible cuts for a given cycle
// budget: every bound here is a statement no covering of the residual
// can violate, so a cut subtree is genuinely exhausted.
//
//cyclecover:noalloc
func (s *exactState) prunedAt(budget, depth int) bool {
	left := budget - depth
	if left <= 0 ||
		left*s.n < s.remainingDist ||
		left < s.uncoveredDiams {
		return true
	}
	// Counting bound with the degree parity refinement (DESIGN.md §10):
	// a cycle of length k covers exactly k pairs and visits k vertices,
	// reducing ⌈uncDeg/2⌉ by at most 1 at each, so it lowers
	// Σ_v ⌈uncDeg[v]/2⌉ by at most k ≤ maxPairs. Since Σ uncDeg =
	// 2·uncovered, this subsumes the plain ⌈uncovered/maxPairs⌉ slot
	// bound and bites a full cycle earlier whenever residual degrees are
	// odd — the paper's parity argument for the even-n +1.
	maxPairs := s.opts.MaxLen
	if maxPairs <= 0 || maxPairs > s.n {
		maxPairs = s.n
	}
	if left*maxPairs < s.sumCeilHalf {
		return true
	}
	// Per-vertex form: a cycle visits a vertex at most once, covering at
	// most two of its incident pairs, so the busiest vertex alone needs
	// ⌈maxUncDeg/2⌉ of the remaining cycles.
	var maxd int32
	for _, d := range s.uncDeg {
		if d > maxd {
			maxd = d
		}
	}
	return left < int(maxd+1)/2
}

// countNode charges one node against the budget; false means the budget
// is exhausted (or the context fired) and the search must stop. The
// context poll here is what makes cancellation take effect within one
// node expansion: every branch application passes through countNode.
//
//cyclecover:noalloc
func (s *exactState) countNode() bool {
	select {
	case <-s.done: // nil when no context: never fires, default taken
		return false
	default:
	}
	if s.nodes >= s.opts.NodeLimit {
		return false
	}
	s.nodes++
	return true
}

// search returns true if the subtree was explored completely (or a
// solution was found); false only when the node limit or the context
// interrupted it.
//
//cyclecover:noalloc
func (s *exactState) search(depth int) bool {
	if s.uncovered == 0 {
		sol := make([][]int, len(s.chosen))
		for d, c := range s.chosen {
			ds := &s.depths[d]
			sol[d] = append([]int(nil), ds.verts[c.off:c.off+c.k]...)
		}
		s.solution = sol
		return true
	}
	if s.pruned(depth) {
		return true // pruned: subtree fully (vacuously) explored
	}
	left := s.opts.Budget - depth
	if s.memoHit(left) {
		// This residual was already proven infeasible with at least this
		// many cycles remaining: the whole subtree is a replay.
		return true
	}
	bc0 := s.boundCuts

	u, v := s.pickBranchPair()
	s.enumerate(depth, u, v)
	ds := &s.depths[depth]
	for ci := 0; ci < len(ds.cands); ci++ {
		c := ds.cands[ci]
		s.apply(depth, c)
		// Forward check: a child the admissible bounds cut at entry is not
		// a node — it is rejected here, before being charged, exactly as
		// its own first pruned() call would have (the unconditional cuts
		// run first there too, so no boundCut accounting is skipped). The
		// rejection still polls cancellation so the latency contract
		// (surface within one node expansion) survives a long run of
		// forward-pruned siblings.
		if s.uncovered > 0 && s.prunedAt(s.opts.Budget, depth+1) {
			s.undo(depth)
			select {
			case <-s.done:
				return false
			default:
			}
			continue
		}
		if !s.countNode() {
			s.undo(depth)
			return false
		}
		s.chosen = append(s.chosen, c)
		done := s.search(depth + 1)
		s.chosen = s.chosen[:len(s.chosen)-1]
		s.undo(depth)
		if s.solution != nil {
			return true
		}
		if !done {
			return false
		}
	}
	// Memo admission rule: every candidate subtree ran to exhaustion with
	// no solution (truncations returned false above), and no competitor-
	// bound cut happened inside (bc0 snapshot) — so "no covering of this
	// residual within `left` cycles" is a proven fact, safe to reuse.
	if s.boundCuts == bc0 {
		s.memoStore(left)
	}
	return true
}

// pickBranchPair selects the uncovered pair with maximum short-arc
// distance (ties: lexicographic), concentrating the search on diameters
// and long chords first.
//
//cyclecover:noalloc
func (s *exactState) pickBranchPair() (int, int) {
	bestU, bestV := -1, -1
	bestD := int32(-1)
	for u := 0; u < s.n; u++ {
		row := u * s.n
		for v := u + 1; v < s.n; v++ {
			if s.covered[row+v] {
				continue
			}
			if d := s.dist[row+v]; d > bestD {
				bestU, bestV, bestD = u, v, d
			}
		}
	}
	return bestU, bestV
}

func (s *exactState) pairIdx(u, v int) int {
	if u > v {
		u, v = v, u
	}
	return u*s.n + v
}

// enumerate fills depth's arena with the candidate cycles in which u and
// v are cyclically consecutive ({u,v} plus a non-empty subset of one arc
// interior), sorted most-constraining first. Allocation-free once the
// arenas have grown.
//
//cyclecover:noalloc
func (s *exactState) enumerate(depth, u, v int) {
	ds := s.dsAt(depth)
	ds.cands = ds.cands[:0]
	ds.verts = ds.verts[:0]
	ds.pairs = ds.pairs[:0]
	ds.side0 = s.interior(u, v, ds.side0[:0])
	ds.side1 = s.interior(v, u, ds.side1[:0])
	s.subsetsFrom(ds, u, v, ds.side0)
	s.subsetsFrom(ds, u, v, ds.side1)
	s.computeStab(u, v)
	if s.nstab > 0 {
		// Orbit pruning: keep only the lexicographically minimal
		// representative of each candidate orbit under the verified
		// residual automorphisms. Compaction preserves relative order; the
		// dropped candidates' arena storage simply goes unreferenced.
		kept := ds.cands[:0]
		for _, c := range ds.cands {
			if s.isOrbitRep(ds, c) {
				kept = append(kept, c)
			}
		}
		ds.cands = kept
	}
	sort.Sort(ds)
}

// sigma applies a dihedral map to a vertex.
//
//cyclecover:noalloc
func (s *exactState) sigma(m dihedralMap, x int) int {
	if m.refl {
		if y := m.r - x; y >= 0 {
			return y
		}
		return m.r - x + s.n
	}
	if y := x + m.r; y < s.n {
		return y
	}
	return x + m.r - s.n
}

// computeStab collects the non-identity dihedral maps that stabilize the
// branch pair {u, v} as a set AND are automorphisms of the residual
// demand. The stabilizer of a pair in D_n has order at most 4, so at
// most three non-identity maps are ever candidates: the reflection
// swapping u and v (axis through the pair), and — when {u, v} is a
// diameter — the half-turn rotation and the reflection fixing both
// endpoints. Each map stabilizing the pair maps the two arc interiors
// onto arc interiors, hence permutes the candidate set of this node;
// being a residual automorphism it preserves gains, distances and every
// counting bound, so orbit-equivalent candidates root exhaustively
// equivalent subtrees.
//
//cyclecover:noalloc
func (s *exactState) computeStab(u, v int) {
	s.nstab = 0
	if s.opts.DisableSymmetry {
		return
	}
	s.tryStab(dihedralMap{refl: true, r: s.r.Norm(u + v)})
	if s.diam[u*s.n+v] {
		s.tryStab(dihedralMap{r: s.n / 2})
		s.tryStab(dihedralMap{refl: true, r: s.r.Norm(2 * u)})
	}
}

// tryStab verifies a dihedral map against the residual demand and, if it
// is an automorphism, records it. The O(n) degree-signature prefilter
// rejects most non-automorphisms before the O(n²) covered-matrix check.
//
//cyclecover:noalloc
func (s *exactState) tryStab(m dihedralMap) {
	for x := 0; x < s.n; x++ {
		if s.uncDeg[s.sigma(m, x)] != s.uncDeg[x] {
			return
		}
	}
	for a := 0; a < s.n; a++ {
		row := a * s.n
		sa := s.sigma(m, a)
		for b := a + 1; b < s.n; b++ {
			if s.covered[row+b] != s.covered[s.pairIdx(sa, s.sigma(m, b))] {
				return
			}
		}
	}
	s.stab[s.nstab] = m
	s.nstab++
}

// isOrbitRep reports whether the candidate is the representative of its
// orbit we keep: no verified stabilizer map sends its vertex set to a
// lexicographically smaller one. The filter need not close the maps
// under composition to stay sound — the full-orbit lex-min element has
// no smaller image under any group element, so every orbit keeps at
// least one member.
//
//cyclecover:noalloc
func (s *exactState) isOrbitRep(ds *depthScratch, c candidate) bool {
	verts := ds.verts[c.off : c.off+c.k]
	for mi := 0; mi < s.nstab; mi++ {
		m := s.stab[mi]
		ds.sym = ds.sym[:0]
		for _, x := range verts {
			ds.sym = append(ds.sym, s.sigma(m, x))
		}
		ring.SortByRingOrder(ds.sym)
		if lexLess(ds.sym, verts) {
			return false
		}
	}
	return true
}

// interior appends the vertices strictly inside the clockwise arc a→b to
// buf and returns it.
//
//cyclecover:noalloc
func (s *exactState) interior(a, b int, buf []int) []int {
	g := s.r.Gap(a, b)
	for i := 1; i < g; i++ {
		buf = append(buf, s.r.Norm(a+i))
	}
	return buf
}

// subsetsFrom enumerates candidates {u, v} ∪ T for non-empty subsets T of
// side, respecting MaxLen, into ds. The enumeration is an explicit-stack
// DFS in prefix preorder — each prefix is emitted when its last vertex is
// chosen, then extended by every higher side index — which is exactly the
// recursive order, without a per-node closure allocation.
//
//cyclecover:noalloc
func (s *exactState) subsetsFrom(ds *depthScratch, u, v int, side []int) {
	maxT := len(side)
	if s.opts.MaxLen > 0 && s.opts.MaxLen-2 < maxT {
		maxT = s.opts.MaxLen - 2
	}
	if maxT <= 0 {
		return
	}
	ds.cur = ds.cur[:0]
	ds.curIdx = ds.curIdx[:0]
	i := 0
	for {
		if i < len(side) && len(ds.cur) < maxT {
			ds.curIdx = append(ds.curIdx, i)
			ds.cur = append(ds.cur, side[i])
			s.pushCandidate(ds, u, v)
			i++
			continue
		}
		if len(ds.curIdx) == 0 {
			return
		}
		i = ds.curIdx[len(ds.curIdx)-1] + 1
		ds.curIdx = ds.curIdx[:len(ds.curIdx)-1]
		ds.cur = ds.cur[:len(ds.cur)-1]
	}
}

// pushCandidate appends the cycle {u, v} ∪ ds.cur to the arena, scoring
// its gain and distance against the current residual state.
//
//cyclecover:noalloc
func (s *exactState) pushCandidate(ds *depthScratch, u, v int) {
	off := len(ds.verts)
	ds.verts = append(ds.verts, u, v)
	ds.verts = append(ds.verts, ds.cur...)
	verts := ds.verts[off:]
	ring.SortByRingOrder(verts)
	c := candidate{off: off, k: len(verts)}
	for i := 0; i < c.k; i++ {
		idx := s.pairIdx(verts[i], verts[(i+1)%c.k])
		ds.pairs = append(ds.pairs, idx)
		if !s.covered[idx] {
			c.gain++
			c.dist += int(s.dist[idx])
		}
	}
	ds.cands = append(ds.cands, c)
}

// apply marks the candidate's pairs covered, recording the newly covered
// indices in the depth's undo log.
//
//cyclecover:noalloc
func (s *exactState) apply(depth int, c candidate) {
	ds := &s.depths[depth]
	ds.newly = ds.newly[:0]
	for _, idx := range ds.pairs[c.off : c.off+c.k] {
		if s.covered[idx] {
			continue
		}
		s.covered[idx] = true
		ds.newly = append(ds.newly, idx)
		s.uncovered--
		s.remainingDist -= int(s.dist[idx])
		if s.diam[idx] {
			s.uncoveredDiams--
		}
		// ⌈d/2⌉ shrinks exactly when d leaves an odd value.
		a, b := idx/s.n, idx%s.n
		if s.uncDeg[a]&1 == 1 {
			s.sumCeilHalf--
		}
		s.uncDeg[a]--
		if s.uncDeg[b]&1 == 1 {
			s.sumCeilHalf--
		}
		s.uncDeg[b]--
		if s.memoOn { // beyond MaxKeyPairs the rank overflows the key words
			s.key.Flip(int(s.rankOf[idx]))
		}
	}
}

// undo reverts the apply recorded at depth.
//
//cyclecover:noalloc
func (s *exactState) undo(depth int) {
	ds := &s.depths[depth]
	for _, idx := range ds.newly {
		s.covered[idx] = false
		s.uncovered++
		s.remainingDist += int(s.dist[idx])
		if s.diam[idx] {
			s.uncoveredDiams++
		}
		// ⌈d/2⌉ grows exactly when d enters an odd value.
		a, b := idx/s.n, idx%s.n
		s.uncDeg[a]++
		if s.uncDeg[a]&1 == 1 {
			s.sumCeilHalf++
		}
		s.uncDeg[b]++
		if s.uncDeg[b]&1 == 1 {
			s.sumCeilHalf++
		}
		if s.memoOn {
			s.key.Flip(int(s.rankOf[idx]))
		}
	}
	ds.newly = ds.newly[:0]
}

func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
