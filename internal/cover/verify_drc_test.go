package cover

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/cyclecover/cyclecover/internal/ring"
)

// referenceWalkDRC is VerifyDRC as it was before the O(k) gap sum: every
// cycle marks each link of each of its arcs. Test-only, to pin that the
// fast verdict and every error text are unchanged.
func referenceWalkDRC(r ring.Ring, c Cycle) error {
	n := r.N()
	marked := make([]bool, n)
	verts := c.Vertices()
	k := len(verts)
	total := 0
	for i := 0; i < k; i++ {
		from, to := verts[i], verts[(i+1)%k]
		gap := r.Gap(from, to)
		if gap == 0 {
			return fmt.Errorf("cover: cycle %v yields an empty routing arc", c)
		}
		total += gap
		l := r.Norm(from)
		for j := 0; j < gap; j++ {
			if marked[l] {
				return fmt.Errorf("cover: cycle %v routes link %d on two arcs", c, l)
			}
			marked[l] = true
			l = (l + 1) % n
		}
	}
	if total != n {
		return fmt.Errorf("cover: cycle %v routing covers %d links, want %d", c, total, n)
	}
	return nil
}

// drcSequence draws a vertex sequence of length up to k on C_n in one of
// three shapes: arbitrary labels (out-of-ring ones included); a
// ring-ordered set rotated and shifted by random multiples of n, with one
// vertex repeated half the time; and positive gaps that may wind the
// ring several times.
func drcSequence(rng *rand.Rand, n, k int) []int {
	switch rng.Intn(3) {
	case 0:
		seq := make([]int, k)
		for i := range seq {
			seq[i] = rng.Intn(4*n) - n
		}
		return seq
	case 1:
		seq := rng.Perm(n)[:min(k, n)]
		slices.Sort(seq)
		start := rng.Intn(n)
		for i := range seq {
			seq[i] = (seq[i]+start)%n + n*(rng.Intn(3)-1)
		}
		if rng.Intn(2) == 0 {
			seq[rng.Intn(len(seq))] = seq[rng.Intn(len(seq))]
		}
		return seq
	default:
		seq := make([]int, k)
		v := rng.Intn(n)
		for i := range seq {
			seq[i] = v
			v += 1 + rng.Intn(max(1, 3*n/k))
		}
		return seq
	}
}

// TestVerifyDRCMatchesWalk pins the O(k) gap sum: on random vertex
// sequences of length 1…12 over C_3…C_40 — repeated vertices, arcs that
// wind the ring several times and out-of-ring labels included — the
// verdict and the error text equal the link-marking walk's.
func TestVerifyDRCMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vf := NewVerifier()
	valid, invalid := 0, 0
	for n := 3; n <= 40; n++ {
		r := ring.MustNew(n)
		for k := 1; k <= 12; k++ {
			for trial := 0; trial < 40; trial++ {
				c := Cycle{verts: drcSequence(rng, n, k)}
				got, want := vf.VerifyDRC(r, c), referenceWalkDRC(r, c)
				if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
					t.Fatalf("n=%d %v: VerifyDRC = %v, walk = %v", n, c.Vertices(), got, want)
				}
				if got == nil {
					valid++
				} else {
					invalid++
				}
			}
		}
	}
	if valid < 1000 || invalid < 1000 {
		t.Fatalf("%d valid and %d invalid sequences; the generator must exercise both paths", valid, invalid)
	}
}
