package construct

import (
	"context"
	"fmt"
	"sync"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// searchEvenLimit is the largest even n for which the min-conflicts repair
// searches run automatically. Beyond it they plateau within their
// iteration budgets (the endgame hits the parity obstructions discussed in
// minconflicts.go) and EvenCtx falls straight through to the layered
// construction; raising this limit trades construction time for
// optimality on mid-size rings.
const searchEvenLimit = 20

var evenCache = struct {
	sync.Mutex
	m map[int]evenEntry
}{m: make(map[int]evenEntry)}

type evenEntry struct {
	cv      *cover.Covering
	optimal bool
}

// EvenCtx builds a DRC-covering of K_n over C_n for even n ≥ 4. The
// boolean reports provable optimality (size = ρ(n), re-verified
// internally).
//
// For n ≤ searchEvenLimit a min-conflicts repair search runs at budget
// ρ(n) (full-instance for n ≤ 16, boundary-restricted beyond; see
// minconflicts.go); by Theorem 2 a covering exists there, and the search
// finds one. For larger even n the layered construction below is used;
// writing n = 2p it produces
//
//	families  {v, v+j, v+p, v+p+j}, v ∈ [0,p), for 2 ≤ j < p/2 —
//	          cover gap classes j and p−j exactly once each;
//	half fam. {v, v+p/2, v+p, v+3p/2}, v ∈ [0,p/2) (p even) —
//	          cover class p/2 exactly once;
//	triangles {v, v+1, v+p}, v ∈ [0,p) — cover every diameter plus
//	          class 1 on [0,p) and class p−1 on [1,p+1);
//	quads     {u, u+1, u+p, u+p+1}, u ∈ [p,2p) — finish classes 1 and
//	          p−1.
//
// Its size is ρ(n) + (⌈p/2⌉ − 1): asymptotically optimal (ratio → 1) but
// not exactly ρ; the gap comes from the boundary quads covering two
// already-covered slots each, and closing it requires the interleaved
// structure of the paper's (omitted) proof. EXPERIMENTS.md reports
// achieved-vs-ρ for every n so the residual gap is visible.
//
// The embedded repair searches poll ctx and abort promptly when it
// fires, in which case EvenCtx returns ctx's error and caches nothing
// (an interrupted build may have fallen through to the layered heuristic
// on an n the searches would have certified optimal — memoizing that
// would poison every later call).
//
// The memo table is guarded by one mutex held across the build, so
// concurrent first calls for any even n serialize; cancellation of the
// builder does not release waiters early. Callers that need detachable
// waiting (the planner service) get it from the cache layer's
// single-flight above this.
func EvenCtx(ctx context.Context, n int) (*cover.Covering, bool, error) {
	if n < 4 || n%2 == 1 {
		panic(fmt.Sprintf("construct: EvenCtx requires even n >= 4, got %d", n))
	}
	evenCache.Lock()
	defer evenCache.Unlock()
	if e, ok := evenCache.m[n]; ok {
		return e.cv.Clone(), e.optimal, nil
	}
	cv, opt := buildEven(ctx, n)
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	evenCache.m[n] = evenEntry{cv: cv, optimal: opt}
	return cv.Clone(), opt, nil
}

func buildEven(ctx context.Context, n int) (*cover.Covering, bool) {
	if cv, ok := evenMCAttempts(ctx, n); ok {
		return cv, true
	}
	return layeredEven(n), false
}

// evenMCAttempts is the min-conflicts attempt ladder at budget ρ(n): by
// Theorem 2 a covering of that size exists, and the search converges
// across the experiment sweep. Small n search the full instance; larger
// n fix the interior gap families and search only the boundary classes
// (see minconflicts.go). Every output is re-verified, and only a
// provably optimal covering is returned. Shared by the closed-form even
// path and the standalone Repair strategy so the two cannot diverge on
// thresholds, widths or verification policy.
func evenMCAttempts(ctx context.Context, n int) (*cover.Covering, bool) {
	attempts := []func() (*cover.Covering, bool){}
	if n <= 16 {
		attempts = append(attempts, func() (*cover.Covering, bool) { return fullEvenMC(ctx, n) })
	}
	if n <= searchEvenLimit {
		attempts = append(attempts,
			func() (*cover.Covering, bool) { return boundaryEvenMC(ctx, n, 2) },
			func() (*cover.Covering, bool) { return boundaryEvenMC(ctx, n, 3) },
		)
	}
	for _, attempt := range attempts {
		if cv, ok := attempt(); ok {
			if err := cover.VerifyOptimal(cv); err == nil {
				return cv, true
			}
		}
	}
	return nil, false
}

// layeredEven is the constructive heuristic described on EvenCtx.
func layeredEven(n int) *cover.Covering {
	r := ring.MustNew(n)
	p := n / 2
	cv := cover.NewCovering(r)

	// Interior families: classes (j, p−j) for 2 ≤ j < p/2.
	for j := 2; 2*j < p; j++ {
		for v := 0; v < p; v++ {
			cv.Add(cover.MustCycle(r, v, v+j, v+p, v+p+j))
		}
	}
	// Middle class p/2 when p is even: half-orbit family.
	if p%2 == 0 && p >= 4 {
		h := p / 2
		for v := 0; v < h; v++ {
			cv.Add(cover.MustCycle(r, v, v+h, v+2*h, v+3*h))
		}
	}
	// Boundary triangles: diameters + classes 1 and p−1 on half the ring.
	for v := 0; v < p; v++ {
		cv.Add(cover.MustCycle(r, v, v+1, v+p))
	}
	// Boundary quads: remaining class-1 and class-(p−1) positions.
	for u := p; u < 2*p; u++ {
		cv.Add(cover.MustCycle(r, u, u+1, u+p, u+p+1))
	}
	cv.Dedup() // n = 4 degenerates to repeated full quads
	return cv
}

// LayeredEvenSize predicts the size of the layered construction for even
// n = 2p without building it: families (⌈p/2⌉−2 of size p, plus p/2 for
// the half family when p is even) + p triangles + p quads. Exported for
// the ablation experiment.
func LayeredEvenSize(n int) int {
	p := n / 2
	size := 0
	for j := 2; 2*j < p; j++ {
		size += p
	}
	if p%2 == 0 && p >= 4 {
		size += p / 2
	}
	size += 2 * p
	if n == 4 {
		size = 3 // dedup collapses the quads
	}
	return size
}
