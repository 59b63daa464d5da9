package construct

import (
	"fmt"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// Even builds an optimal DRC-covering of K_n over C_n for even n = 2p ≥ 4,
// reproducing Theorem 2's count ρ(n) = ⌈(p²+1)/2⌉ without search. Two
// steps reach every even ring from Theorem 1's cover (Odd) and the
// paper's K_4 example:
//
//   - n = 4q+2 from Odd(4q+1), whose vertices 0…4q are in ring order.
//     Insert x = 4q+1 between 4q and 0. Theorem 1 covers each pair
//     {i, 2q+1+i} once, along the short arc through the link 4q→0, so
//     exactly one cycle has smallest vertex i and largest 2q+1+i; for
//     each odd i < 2q, x joins that cycle, which then covers x–i and
//     x–(2q+1+i) instead. The q+1 new cycles are the five-cycles
//     {i−1, i, 2q+1+i, 2q+2+i, x} for odd i ≤ 2q−3, the quad
//     {2q−2, 2q−1, 4q, x} and the triangle {2q, 2q+1, x}:
//     ρ(4q+1) + q + 1 = ρ(4q+2).
//   - n = 4q from the cover of 2p = 4q−2 (p odd). Vertex v ≥ p becomes
//     v+1, and x = p, y = 2p+1 are new. The p quads {i, x, p+1+i, y},
//     i < p, and the triangle {0, x, y} cover every new pair:
//     p + 1 = ρ(2p+2) − ρ(2p) cycles.
//
// The shapes differ from the paper's stated composition: five-cycles
// appear, and cover.TheoremComposition's triangle and quad counts are
// not met. The slot total Σ|C|, which is the WDM ADM count, equals the
// stated composition's at n ≡ 2 (mod 4) and exceeds it by one at
// n ≡ 0 (mod 4). A call costs O(n²): the n ≡ 0 step relabels the
// smaller cover in place, and the n ≡ 2 step adds x to q cycles.
//
// Even panics if n is odd or n < 4; AllToAllCtx is the checked entry
// point.
func Even(n int) *cover.Covering {
	if n < 4 || n%2 == 1 {
		panic(fmt.Sprintf("construct: Even requires even n >= 4, got %d", n))
	}
	r := ring.MustNew(n)
	if n == 4 {
		// The paper's worked example: {0,1,2,3}, {0,1,3} and {0,2,3}.
		cv := cover.NewCovering(r)
		cv.Add(cover.MustCycle(r, 0, 1, 2, 3), cover.MustCycle(r, 0, 1, 3), cover.MustCycle(r, 0, 2, 3))
		return cv
	}
	if n%4 == 2 {
		q, x := (n-2)/4, n-1
		cv := Odd(n - 1)
		cv.Ring = r
		for j, c := range cv.Cycles {
			vs := c.Vertices()
			if i := vs[0]; i%2 == 1 && i < 2*q && vs[len(vs)-1] == 2*q+1+i {
				cv.Cycles[j] = cover.MustCycle(r, append(vs[:len(vs):len(vs)], x)...)
			}
		}
		for i := 1; i <= 2*q-3; i += 2 {
			cv.Add(cover.MustCycle(r, i-1, i, 2*q+1+i, 2*q+2+i, x))
		}
		cv.Add(cover.MustCycle(r, 2*q-2, 2*q-1, 4*q, x), cover.MustCycle(r, 2*q, 2*q+1, x))
		return cv
	}
	p := (n - 2) / 2
	x, y := p, 2*p+1
	cv := Even(n - 2)
	cv.Ring = r
	// The smaller cover is private to this call, so its vertex arrays
	// are relabelled in place; the shift keeps each one sorted.
	for _, c := range cv.Cycles {
		vs := c.Vertices()
		for k, v := range vs {
			if v >= p {
				vs[k] = v + 1
			}
		}
	}
	for i := 0; i < p; i++ {
		cv.Add(cover.MustCycle(r, i, x, p+1+i, y))
	}
	cv.Add(cover.MustCycle(r, 0, x, y))
	return cv
}
