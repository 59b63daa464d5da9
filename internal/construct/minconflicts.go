package construct

import (
	"context"
	"math/rand"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// This file implements the fixed-budget repair search used by EvenCtx to hit
// ρ(n) exactly. Three formulations share the engine:
//
//   - full: the whole all-to-all instance is the universe (used for small
//     n, where the space is small enough to converge quickly);
//   - boundary: the interior gap-class families {v, v+j, v+p, v+p+j}
//     (2 < j < p/2, plus the class-p/2 half family) are provably perfect
//     coverings of their classes, so they are fixed, and the search runs
//     only over the residual universe — classes 1, 2, p−2, p−1 and the
//     diameters — with candidate cycles whose every arc stays inside those
//     classes. This shrinks the universe from Θ(n²) to Θ(n) pairs and
//     makes the search scale to the full experiment sweep.
//   - delta (DeltaRepair): the universe is an explicit demand multigraph —
//     pair {u,v} must reach coverage demand.Mult(u,v) — and the search is
//     warm-started from a surviving parent covering after a bounded
//     instance change. The state is caller-owned scratch, so the warm
//     path allocates nothing in steady state.
//
// Every produced covering is re-verified by the caller; a non-converged
// search returns ok = false and never an invalid result.

// mcProblem describes one repair-search instance.
type mcProblem struct {
	r      ring.Ring
	budget int     // fixed number of cycles
	seed   [][]int // initial cycles; trimmed to budget from the end, padded with random triangles
	// seedCov optionally continues the seed after the seed slice: its
	// cycles are copied in order into the remaining budget slots. It lets
	// warm-start callers seed from an existing covering without
	// materializing a [][]int.
	seedCov *cover.Covering
	// allowed[d] reports whether pairs at ring distance d are part of the
	// universe (and permitted inside candidate cycles); nil = everything.
	allowed []bool
	// demand switches the engine to multiplicity mode: the universe is
	// exactly the demand's edges, and pair {u,v} counts as covered only
	// once its coverage reaches demand.Mult(u,v). nil keeps the classic
	// distance-class universe above (implicit multiplicity 1).
	demand  *graph.Graph
	iters   int
	rngSeed int64
}

const mcWalkProb = 0.08

// runMC runs min-conflicts repair and returns the cycle vertex sets on
// success (universe fully covered). Cancellation is polled every 256
// iterations — individual steps are microseconds, so a fired context
// stops the search well within a millisecond, reported as non-converged.
func runMC(ctx context.Context, p mcProblem) ([][]int, bool) {
	st := newMCState(p)
	if !st.run(ctx, p.iters) {
		return nil, false
	}
	out := make([][]int, len(st.cycles))
	for i, c := range st.cycles {
		out[i] = append([]int(nil), c.verts...)
	}
	return out, true
}

type mcCycle struct {
	verts []int
	pairs []int
}

// mcRand is the randomness the min-conflicts search consumes. The
// classic formulations bind it to *math/rand.Rand so their streams stay
// bit-identical to the published constructions; the delta-repair path
// binds it to xorshiftRand, whose reseed is two multiplies instead of
// math/rand's 607-word state rebuild — reseeding dominated warm repair
// before the split.
type mcRand interface {
	Seed(seed int64)
	Intn(n int) int
	Float64() float64
	Perm(n int) []int
}

// xorshiftRand is a tiny xorshift64* generator behind mcRand. Quality is
// ample for conflict-resolution tie-breaking, and both seeding and
// drawing are a handful of word operations. Perm reuses an internal
// buffer (valid until the next Perm call) to keep the warm repair path
// allocation-free.
type xorshiftRand struct {
	s    uint64
	perm []int
}

func (r *xorshiftRand) Seed(seed int64) {
	// SplitMix64-style scramble; the state must never be zero.
	r.s = uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	if r.s == 0 {
		r.s = 0x2545f4914f6cdd1d
	}
}

func (r *xorshiftRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s * 0x2545f4914f6cdd1d
}

func (r *xorshiftRand) Intn(n int) int { return int(r.next() % uint64(n)) }

func (r *xorshiftRand) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *xorshiftRand) Perm(n int) []int {
	if cap(r.perm) < n {
		r.perm = make([]int, n)
	}
	p := r.perm[:n]
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

type mcState struct {
	r   ring.Ring
	n   int
	rng mcRand

	allowed []bool
	// need[p] is the required coverage of pair p when useNeed is set;
	// pairs with need 0 are outside the universe. The classic formulations
	// leave useNeed false: universe membership is the allowed distance
	// classes and every universe pair needs coverage exactly once.
	need     []int
	useNeed  bool
	gapOK    []int // allowed clockwise gaps (both orientations of allowed dists)
	cycles   []mcCycle
	coverage []int

	uncovered    []int
	uncoveredPos []int
	numUncovered int

	// Candidate arena, rebuilt by buildCandidates each step and reused
	// across the whole run: candidate i's vertices live at
	// candVerts[off:off+k], its pair indices at the same offsets of
	// candPairs. No per-step allocation.
	cands     []mcCandidate
	candVerts []int
	candPairs []int

	// victims and randBuf are per-step return buffers for pickVictims and
	// randomCycle, reused so the hot loop allocates nothing.
	victims []int
	randBuf [3]int
}

// newMCState allocates a state and initialises it for p. Reusable callers
// (DeltaScratch) keep one mcState and call init directly.
func newMCState(p mcProblem) *mcState {
	st := &mcState{}
	st.init(p)
	return st
}

// resizeInts returns s with length n, reusing its storage when the
// capacity suffices. Contents are unspecified; callers reset what they
// need.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// init (re)initialises the state for a fresh problem, reusing every
// buffer the state has already grown: after a warm-up run on the same
// ring size, initialising and running a new problem allocates nothing.
//
//cyclecover:noalloc
func (st *mcState) init(p mcProblem) {
	n := p.r.N()
	st.r = p.r
	st.n = n
	// The delta path (need-mode) reseeds on every repair attempt, so it
	// gets the cheap generator; the classic paths keep math/rand and its
	// pinned streams. A state is only ever reused within one mode.
	if p.demand != nil {
		if st.rng == nil {
			st.rng = new(xorshiftRand) //cyclecover:allocok one-time nil-guard; the generator is reused across repairs
		}
		st.rng.Seed(p.rngSeed)
	} else if st.rng == nil {
		st.rng = rand.New(rand.NewSource(p.rngSeed))
	} else {
		st.rng.Seed(p.rngSeed)
	}
	st.allowed = p.allowed
	st.coverage = resizeInts(st.coverage, n*n)
	for i := range st.coverage {
		st.coverage[i] = 0
	}
	st.uncoveredPos = resizeInts(st.uncoveredPos, n*n)
	for i := range st.uncoveredPos {
		st.uncoveredPos[i] = -1
	}
	st.uncovered = st.uncovered[:0]
	st.numUncovered = 0
	st.gapOK = st.gapOK[:0]
	st.cands = st.cands[:0]
	st.candVerts = st.candVerts[:0]
	st.candPairs = st.candPairs[:0]
	st.victims = st.victims[:0]

	st.useNeed = p.demand != nil
	if st.useNeed {
		st.need = resizeInts(st.need, n*n)
		for i := range st.need {
			st.need[i] = 0
		}
		// Direct Mult probes, not ForEachEdge: the callback closure would
		// escape and cost the warm path its only allocation.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				m := p.demand.Mult(u, v)
				st.need[u*n+v] = m
				if m > 0 {
					st.markUncovered(u*n + v)
				}
			}
		}
	} else {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if st.inUniverse(u, v) {
					st.markUncovered(u*n + v)
				}
			}
		}
	}
	for g := 1; g < n; g++ {
		if st.distAllowed(min(g, n-g)) {
			st.gapOK = append(st.gapOK, g)
		}
	}

	// Reuse retained cycle slots: reviving a slot within capacity keeps
	// its verts/pairs buffers for attach to refill.
	st.cycles = st.cycles[:0]
	for i := 0; i < p.budget; i++ {
		switch {
		case i < len(p.seed):
			st.addCycle(p.seed[i])
		case p.seedCov != nil && i-len(p.seed) < len(p.seedCov.Cycles):
			st.addCycle(p.seedCov.Cycles[i-len(p.seed)].Vertices())
		default:
			st.addCycle(st.randomCycle())
		}
	}
}

// run drives the search loop until convergence, iteration exhaustion or
// cancellation, reporting whether the universe ended fully covered.
//
//cyclecover:noalloc
func (st *mcState) run(ctx context.Context, iters int) bool {
	done := ctx.Done()
	for iter := 0; iter < iters && st.numUncovered > 0; iter++ {
		if iter&255 == 0 {
			select {
			case <-done:
				return false
			default:
			}
		}
		st.step()
	}
	return st.numUncovered == 0
}

func (st *mcState) distAllowed(d int) bool {
	if st.allowed == nil {
		return true
	}
	return d < len(st.allowed) && st.allowed[d]
}

func (st *mcState) inUniverse(u, v int) bool {
	return st.distAllowed(st.r.Dist(u, v))
}

// randomCycle pads the seed: a random allowed triangle if the class
// restriction permits one, otherwise a random triangle. The returned
// slice is the state's reusable buffer — valid until the next call.
func (st *mcState) randomCycle() []int {
	for attempt := 0; attempt < 64; attempt++ {
		u := st.rng.Intn(st.n)
		g1 := st.gapOK[st.rng.Intn(len(st.gapOK))]
		g2 := st.gapOK[st.rng.Intn(len(st.gapOK))]
		if g1+g2 >= st.n {
			continue
		}
		rest := st.n - g1 - g2
		if !st.distAllowed(min(rest, st.n-rest)) {
			continue
		}
		vs := st.randBuf[:3]
		vs[0], vs[1], vs[2] = u, st.r.Norm(u+g1), st.r.Norm(u+g1+g2)
		ring.SortByRingOrder(vs)
		return vs
	}
	perm := st.rng.Perm(st.n)
	vs := st.randBuf[:3]
	vs[0], vs[1], vs[2] = perm[0], perm[1], perm[2]
	ring.SortByRingOrder(vs)
	return vs
}

func (st *mcState) pairIdx(u, v int) int {
	if u > v {
		u, v = v, u
	}
	return u*st.n + v
}

func (st *mcState) markUncovered(idx int) {
	if st.uncoveredPos[idx] != -1 {
		return
	}
	st.uncoveredPos[idx] = len(st.uncovered)
	st.uncovered = append(st.uncovered, idx)
	st.numUncovered++
}

func (st *mcState) markCovered(idx int) {
	pos := st.uncoveredPos[idx]
	if pos == -1 {
		return
	}
	last := len(st.uncovered) - 1
	moved := st.uncovered[last]
	st.uncovered[pos] = moved
	st.uncoveredPos[moved] = pos
	st.uncovered = st.uncovered[:last]
	st.uncoveredPos[idx] = -1
	st.numUncovered--
}

// addCycle appends a cycle, reviving a retained slot (with its buffers)
// when the backing array still has capacity from an earlier run.
func (st *mcState) addCycle(verts []int) {
	if len(st.cycles) < cap(st.cycles) {
		st.cycles = st.cycles[:len(st.cycles)+1]
	} else {
		st.cycles = append(st.cycles, mcCycle{})
	}
	st.attach(len(st.cycles)-1, verts)
}

func (st *mcState) cover(p int) {
	st.coverage[p]++
	if st.useNeed {
		if st.coverage[p] >= st.need[p] {
			st.markCovered(p)
		}
		return
	}
	// Pairs outside the universe carry coverage counts too (harmless);
	// only universe pairs are in the uncovered set.
	st.markCovered(p)
}

func (st *mcState) uncover(p int) {
	st.coverage[p]--
	if st.useNeed {
		if st.need[p] > 0 && st.coverage[p] < st.need[p] {
			st.markUncovered(p)
		}
		return
	}
	if st.coverage[p] == 0 {
		u, v := p/st.n, p%st.n
		if st.inUniverse(u, v) {
			st.markUncovered(p)
		}
	}
}

func (st *mcState) detach(i int) {
	for _, p := range st.cycles[i].pairs {
		st.uncover(p)
	}
}

// restore re-covers a detached cycle's pairs without rebuilding it — the
// undo of detach for a victim that keeps its cycle.
func (st *mcState) restore(i int) {
	for _, p := range st.cycles[i].pairs {
		st.cover(p)
	}
}

// attach replaces cycle i with the given vertex set, reusing the cycle's
// slice storage. verts must not alias the cycle's own buffers (the
// self-replacement case is restore).
func (st *mcState) attach(i int, verts []int) {
	c := &st.cycles[i]
	c.verts = append(c.verts[:0], verts...)
	for k, v := range c.verts {
		c.verts[k] = st.r.Norm(v)
	}
	ring.SortByRingOrder(c.verts)
	k := len(c.verts)
	c.pairs = c.pairs[:0]
	for j := 0; j < k; j++ {
		c.pairs = append(c.pairs, st.pairIdx(c.verts[j], c.verts[(j+1)%k]))
	}
	for _, p := range c.pairs {
		st.cover(p)
	}
}

// loss counts the universe pairs that would fall below their requirement
// if cycle i were detached.
func (st *mcState) loss(i int) int {
	l := 0
	for _, p := range st.cycles[i].pairs {
		if st.useNeed {
			if st.need[p] > 0 && st.coverage[p] == st.need[p] {
				l++
			}
			continue
		}
		if st.coverage[p] == 1 {
			u, v := p/st.n, p%st.n
			if st.inUniverse(u, v) {
				l++
			}
		}
	}
	return l
}

// gain counts the uncovered universe pairs the candidate would push up to
// their requirement.
func (st *mcState) gain(c mcCandidate) int {
	g := 0
	for _, p := range st.candPairs[c.off : c.off+c.k] {
		if st.useNeed {
			if st.need[p] > 0 && st.coverage[p] == st.need[p]-1 {
				g++
			}
			continue
		}
		if st.coverage[p] == 0 {
			u, v := p/st.n, p%st.n
			if st.inUniverse(u, v) {
				g++
			}
		}
	}
	return g
}

//cyclecover:noalloc
func (st *mcState) step() {
	idx := st.uncovered[st.rng.Intn(st.numUncovered)]
	u, v := idx/st.n, idx%st.n

	st.buildCandidates(u, v)
	if len(st.cands) == 0 {
		return
	}
	victims := st.pickVictims()

	bestV, bestC, bestDelta := -1, -1, 1<<30
	base := st.numUncovered
	for _, vi := range victims {
		st.detach(vi)
		lossVi := st.numUncovered - base
		for ci := range st.cands {
			delta := lossVi - st.gain(st.cands[ci])
			if delta < bestDelta || (delta == bestDelta && st.rng.Intn(2) == 0) {
				bestV, bestC, bestDelta = vi, ci, delta
			}
		}
		st.restore(vi)
	}
	if bestV == -1 {
		return
	}
	st.detach(bestV)
	c := st.cands[bestC]
	st.attach(bestV, st.candVerts[c.off:c.off+c.k])
}

// mcCandidate references a candidate cycle in the state's flat arena:
// vertices at candVerts[off:off+k], pair indices at candPairs[off:off+k].
type mcCandidate struct {
	off, k int
}

// buildCandidates fills st.cands with cycles in which u and v are
// cyclically consecutive and every arc distance is allowed. Cycles are
// built as gap walks b → … → a around the arc complementary to the empty
// one, with one or two intermediate vertices and each step an allowed
// gap; this keeps enumeration O(|gapOK|²) regardless of n.
func (st *mcState) buildCandidates(u, v int) {
	st.cands = st.cands[:0]
	st.candVerts = st.candVerts[:0]
	st.candPairs = st.candPairs[:0]
	var tmp [4]int
	for _, dir := range [2][2]int{{u, v}, {v, u}} {
		a, b := dir[0], dir[1]
		// Arc a→b empty; intermediates walk clockwise from b back to a.
		l := st.r.Gap(b, a)
		for _, g1 := range st.gapOK {
			if g1 >= l {
				break // gapOK ascending
			}
			w1 := st.r.Norm(b + g1)
			// Triangle {a, b, w1}: closing gap l−g1 must be allowed.
			if rest := l - g1; st.distAllowed(min(rest, st.n-rest)) {
				tmp[0], tmp[1], tmp[2] = a, b, w1
				st.pushCandidate(tmp[:3])
			}
			for _, g2 := range st.gapOK {
				if g1+g2 >= l {
					break
				}
				rest := l - g1 - g2
				if !st.distAllowed(min(rest, st.n-rest)) {
					continue
				}
				w2 := st.r.Norm(b + g1 + g2)
				tmp[0], tmp[1], tmp[2], tmp[3] = a, b, w1, w2
				st.pushCandidate(tmp[:4])
			}
		}
	}
}

// pushCandidate appends the candidate cycle to the arena in ring order.
func (st *mcState) pushCandidate(verts []int) {
	off := len(st.candVerts)
	st.candVerts = append(st.candVerts, verts...)
	vs := st.candVerts[off:]
	ring.SortByRingOrder(vs)
	k := len(vs)
	for i := 0; i < k; i++ {
		st.candPairs = append(st.candPairs, st.pairIdx(vs[i], vs[(i+1)%k]))
	}
	st.cands = append(st.cands, mcCandidate{off: off, k: k})
}

// pickVictims returns the victim cycle indices for this step in the
// state's reusable buffer — valid until the next call.
func (st *mcState) pickVictims() []int {
	st.victims = st.victims[:0]
	// Endgame: with only a few pairs left, the winning swap may involve a
	// mid-loss cycle that the lowest-loss shortcut never offers. Scan
	// everything occasionally — doing it every step would dominate the
	// run, since the search spends most of its time near the end.
	if st.numUncovered <= 4 && st.rng.Intn(16) == 0 {
		for i := range st.cycles {
			st.victims = append(st.victims, i)
		}
		return st.victims
	}
	if st.rng.Float64() < mcWalkProb {
		// Store the grown slice back: a returned-only append never teaches
		// st.victims its capacity, costing one allocation per call.
		st.victims = append(st.victims, st.rng.Intn(len(st.cycles)))
		return st.victims
	}
	best1, best2 := -1, -1
	loss1, loss2 := 1<<30, 1<<30
	scan := len(st.cycles)
	offset := 0
	const window = 700
	if scan > window {
		scan = window
		offset = st.rng.Intn(len(st.cycles))
	}
	for k := 0; k < scan; k++ {
		i := (offset + k) % len(st.cycles)
		l := st.loss(i)
		switch {
		case l < loss1:
			best2, loss2 = best1, loss1
			best1, loss1 = i, l
		case l < loss2:
			best2, loss2 = i, l
		}
	}
	if best2 == -1 {
		st.victims = append(st.victims, best1)
	} else {
		st.victims = append(st.victims, best1, best2)
	}
	return st.victims
}

// ---------------------------------------------------------------------
// Problem builders.

// fullEvenMC searches the whole instance (small even n).
func fullEvenMC(ctx context.Context, n int) (*cover.Covering, bool) {
	r := ring.MustNew(n)
	seed := layeredEven(n)
	var sv [][]int
	for _, c := range seed.Cycles {
		sv = append(sv, c.Vertices())
	}
	cycles, ok := runMC(ctx, mcProblem{
		r:       r,
		budget:  cover.Rho(n),
		seed:    sv,
		iters:   120_000 + 1_500*n,
		rngSeed: int64(n),
	})
	if !ok {
		return nil, false
	}
	return cyclesToCovering(r, cycles), true
}

// boundaryEvenMC fixes the interior families and searches only the
// boundary classes. width selects the residual class set: width 2 ⇒
// {1, 2, p−2, p−1, p}; width 3 adds {3, p−3}.
func boundaryEvenMC(ctx context.Context, n, width int) (*cover.Covering, bool) {
	p := n / 2
	if width >= p-width {
		return nil, false // class sets would overlap; full search handles these n
	}
	r := ring.MustNew(n)

	fixed := cover.NewCovering(r)
	var seed [][]int
	// Interior families j ∈ (width, p/2): fixed. Classes j ≤ width and
	// their mirrors are the search universe; their layered cycles become
	// the seed.
	for j := 2; 2*j < p; j++ {
		if j > width {
			for v := 0; v < p; v++ {
				fixed.Add(cover.MustCycle(r, v, v+j, v+p, v+p+j))
			}
		}
	}
	if p%2 == 0 && p >= 4 {
		h := p / 2
		if h > width {
			for v := 0; v < h; v++ {
				fixed.Add(cover.MustCycle(r, v, v+h, v+2*h, v+3*h))
			}
		}
	}
	// Seed: boundary triangles, then family quads for the in-universe
	// interior classes, then the boundary quads (trimmed first, as they
	// carry the least unique coverage).
	for v := 0; v < p; v++ {
		seed = append(seed, []int{v, v + 1, v + p})
	}
	for j := 2; j <= width && 2*j < p; j++ {
		for v := 0; v < p; v++ {
			seed = append(seed, []int{v, v + j, v + p, v + p + j})
		}
	}
	for u := p; u < 2*p; u++ {
		seed = append(seed, []int{u, st4(u + 1), u + p, u + p + 1})
	}

	budget := cover.Rho(n) - fixed.Size()
	if budget < 1 {
		return nil, false
	}
	allowed := make([]bool, p+1)
	for d := 1; d <= width; d++ {
		allowed[d] = true
		allowed[p-d] = true
	}
	allowed[p] = true

	// Multiple restarts with distinct seeds: the endgame is stochastic and
	// restarts are far cheaper than longer single runs.
	var cycles [][]int
	ok := false
	for attempt := 0; attempt < 6 && !ok && ctx.Err() == nil; attempt++ {
		cycles, ok = runMC(ctx, mcProblem{
			r:       r,
			budget:  budget,
			seed:    seed,
			allowed: allowed,
			iters:   120_000 + 4_000*p,
			rngSeed: int64(1000*n + width + 7777*attempt),
		})
	}
	if !ok {
		return nil, false
	}
	out := fixed
	for _, verts := range cycles {
		out.Add(cover.MustCycle(r, verts...))
	}
	out.Canonicalize()
	return out, true
}

// st4 is a no-op that keeps the seed literals symmetric with the other
// builders (vertex labels are normalised by MustCycle/addCycle anyway).
func st4(v int) int { return v }

func cyclesToCovering(r ring.Ring, cycles [][]int) *cover.Covering {
	cv := cover.NewCovering(r)
	for _, verts := range cycles {
		cv.Add(cover.MustCycle(r, verts...))
	}
	cv.Canonicalize()
	return cv
}
