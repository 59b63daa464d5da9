package cyclecover

import (
	"context"
	"fmt"
	"testing"
)

// TestDeltaMatchesOrBeatsCold is the tentpole's quality gate: across
// every demand family and ring size the edge-case sweep covers, and a
// set of single-pair deltas of every kind, the incrementally replanned
// covering must (1) verify against the child demand and (2) cost no more
// cycles than a cold replan of the child — warm repair is budgeted by
// the cold pipeline's size and falls back to cold construction when it
// cannot converge, so a delta plan is never worse than replanning from
// nothing.
func TestDeltaMatchesOrBeatsCold(t *testing.T) {
	specs := func(n int) []string {
		return []string{
			"alltoall",
			"lambda:2",
			"lambda:3",
			"hub:0",
			fmt.Sprintf("hub:%d", n-1),
			"neighbors",
			"random:0.3:5",
			"random:0.8:11",
			"random:0:1",
			"random:1:2",
		}
	}
	// Probe pairs spanning the ring: adjacent, antipodal-ish, wraparound.
	pairsFor := func(n int) [][2]int {
		set := [][2]int{{0, 1}, {0, n / 2}, {1, n - 1}}
		var out [][2]int
		seen := map[[2]int]bool{}
		for _, p := range set {
			u, v := p[0], p[1]
			if u > v {
				u, v = v, u
			}
			if u == v || seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			out = append(out, [2]int{u, v})
		}
		return out
	}

	ctx := context.Background()
	warm := NewPlanner() // serves the parents and the delta plans
	cold := NewPlanner() // independent cache: cold replans of the children
	checked, repaired := 0, 0
	for n := 3; n <= 16; n++ {
		for _, spec := range specs(n) {
			in, err := ParseInstance(n, spec)
			if err != nil {
				t.Fatalf("n=%d %s: parse: %v", n, spec, err)
			}
			if _, err := warm.CoverInstance(ctx, in); err != nil {
				t.Fatalf("n=%d %s: parent plan: %v", n, spec, err)
			}
			parentSig := warm.SignatureOf(in)
			for _, p := range pairsFor(n) {
				u, v := p[0], p[1]
				var deltas []string
				deltas = append(deltas, fmt.Sprintf("add:%d:%d", u, v))
				if in.Demand.Mult(u, v) > 0 {
					deltas = append(deltas,
						fmt.Sprintf("remove:%d:%d", u, v),
						fmt.Sprintf("fail:%d:%d", u, v))
				}
				deltas = append(deltas, fmt.Sprintf("set:%d:%d:2", u, v))
				for _, dspec := range deltas {
					d, err := ParseDelta(dspec)
					if err != nil {
						t.Fatalf("n=%d %s %s: %v", n, spec, dspec, err)
					}
					pd, err := warm.PlanDelta(ctx, parentSig, d)
					if err != nil {
						t.Fatalf("n=%d %s %s: delta plan: %v", n, spec, dspec, err)
					}
					if err := Verify(pd.Covering, pd.Child); err != nil {
						t.Fatalf("n=%d %s %s: repaired covering invalid: %v", n, spec, dspec, err)
					}
					coldCv, err := cold.CoverInstance(ctx, pd.Child)
					if err != nil {
						t.Fatalf("n=%d %s %s: cold replan: %v", n, spec, dspec, err)
					}
					if pd.Covering.Size() > coldCv.Size() {
						t.Fatalf("n=%d %s %s: delta plan has %d cycles, cold replan %d (method %s)",
							n, spec, dspec, pd.Covering.Size(), coldCv.Size(), pd.Method)
					}
					checked++
					if pd.Repaired {
						repaired++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("sweep checked nothing")
	}
	// The sweep must exercise the warm path, not just the fallback: on
	// these bounded deltas repair should converge most of the time.
	if repaired*2 < checked {
		t.Fatalf("warm repair converged on only %d of %d deltas", repaired, checked)
	}
	t.Logf("checked %d deltas, %d warm-repaired", checked, repaired)
}
