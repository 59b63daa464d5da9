package cyclecover

import (
	"context"
	"strings"
	"testing"
)

// generalFamilies is the property-harness table: every general-topology
// spec family the wire format offers, each with its host size and
// whether the host is a snark (so the literature bound 4/3·m + c
// applies). The harness runs the full Parse → Cover → Verify round-trip
// on each and re-validates the cover edge by edge, independently of the
// library verifier.
var generalFamilies = []struct {
	spec  string
	n     int
	snark bool
}{
	{"petersen", 10, true},
	{"blanusa:1", 18, true},
	{"blanusa:2", 18, true},
	{"flower:5", 20, true},
	{"flower:7", 28, true},
	{"prism:3", 6, false},
	{"prism:4", 8, false},
	{"prism:6", 12, false},
	{"cubic:1", 12, false},
	{"cubic:7", 12, false},
	{"edges:0-1,1-2,2-3,3-0,0-2,1-3", 4, false},
	{"edges:0-1,1-2,2-0,0-3,3-4,4-0,1-3,2-4", 5, false}, // non-regular: degrees 4,3,3,3,3
	{"adj:1,2;0,2;0,1", 3, false},
	{"adj:1,2,3;0,2,3;0,1,3;0,1,2", 4, false},
}

// checkCoverEdgeByEdge re-validates a general cover against its host
// with independent bookkeeping: every consecutive cycle pair must be a
// host edge, and the union of all pairs must touch every host edge. It
// deliberately repeats none of the verifier's code.
func checkCoverEdgeByEdge(t *testing.T, cv *Covering, in Instance) {
	t.Helper()
	covered := make(map[[2]int]bool)
	for ci, c := range cv.Cycles {
		verts := c.Vertices()
		if len(verts) < 3 {
			t.Fatalf("cycle %d has %d vertices", ci, len(verts))
		}
		for i, u := range verts {
			v := verts[(i+1)%len(verts)]
			if u > v {
				u, v = v, u
			}
			if in.Host.Mult(u, v) == 0 {
				t.Fatalf("cycle %d walks {%d,%d}, not a host edge", ci, u, v)
			}
			covered[[2]int{u, v}] = true
		}
	}
	missing := 0
	for u := 0; u < in.N(); u++ {
		for v := u + 1; v < in.N(); v++ {
			if in.Host.Mult(u, v) > 0 && !covered[[2]int{u, v}] {
				missing++
			}
		}
	}
	if missing != 0 {
		t.Fatalf("%d host edges uncovered", missing)
	}
}

// TestGeneralEndToEnd is the property harness: for every general spec
// family, Parse → CoverInstance → Verify must round-trip, the cover
// must survive independent edge-by-edge validation, its length must
// respect the counting lower bound, and snark covers must meet the
// literature bound 4/3·m + c.
func TestGeneralEndToEnd(t *testing.T) {
	for _, tc := range generalFamilies {
		tc := tc
		t.Run(tc.spec, func(t *testing.T) {
			t.Parallel()
			in, err := ParseInstance(tc.n, tc.spec)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if !in.IsGeneral() {
				t.Fatalf("%q did not parse as a general-topology instance", tc.spec)
			}
			cv, err := CoverInstance(context.Background(), in)
			if err != nil {
				t.Fatalf("cover: %v", err)
			}
			if err := Verify(cv, in); err != nil {
				t.Fatalf("verify: %v", err)
			}
			checkCoverEdgeByEdge(t, cv, in)
			length := cv.TotalLength()
			if lb := SCCLowerBound(in); length < lb {
				t.Fatalf("cover length %d below the provable lower bound %d", length, lb)
			}
			if tc.snark {
				if ub := SnarkSCCUpperBound(in.Host.M()); length > ub {
					t.Fatalf("snark cover length %d exceeds the literature bound 4/3·m + c = %d", length, ub)
				}
			}
			// The WDM layer must refuse: there is no ring to route on.
			if _, err := PlanWDM(cv, in); err == nil {
				t.Fatal("PlanWDM accepted a general-topology instance")
			}
		})
	}
}

// TestPlannerCoverGeneral is the cached end-to-end acceptance path:
// Planner.CoverInstance plans Petersen and the flower snark J5 through
// the covering cache, the covers verify, meet the snark bound, and the
// second request is served from memory.
func TestPlannerCoverGeneral(t *testing.T) {
	p := NewPlanner()
	for _, spec := range []struct {
		spec string
		n    int
	}{
		{"petersen", 10},
		{"flower:5", 20},
	} {
		in, err := ParseInstance(spec.n, spec.spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.spec, err)
		}
		cv, err := p.CoverInstance(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", spec.spec, err)
		}
		if err := Verify(cv, in); err != nil {
			t.Fatalf("%s: planned cover invalid: %v", spec.spec, err)
		}
		if got, ub := cv.TotalLength(), SnarkSCCUpperBound(in.Host.M()); got > ub {
			t.Fatalf("%s: length %d exceeds 4/3·m + c = %d", spec.spec, got, ub)
		}
		misses := p.CacheStats().Coverings.Misses
		if _, err := p.CoverInstance(context.Background(), in); err != nil {
			t.Fatalf("%s warm: %v", spec.spec, err)
		}
		if p.CacheStats().Coverings.Misses != misses {
			t.Fatalf("%s: second CoverInstance missed the cache", spec.spec)
		}
		// The optical layer has no meaning over a general host.
		if _, err := p.PlanWDM(context.Background(), in); err == nil {
			t.Fatalf("%s: Planner.PlanWDM accepted a general instance", spec.spec)
		} else if !strings.Contains(err.Error(), "ring instances only") {
			t.Fatalf("%s: unexpected PlanWDM rejection: %v", spec.spec, err)
		}
	}
}

// TestGeneralRingSeparation pins the family boundary at the facade: a
// general host that happens to be K_4 must not alias the ring K_4
// instance — different signature, different objective, different
// verifier.
func TestGeneralRingSeparation(t *testing.T) {
	p := NewPlanner()
	gen, err := ParseInstance(4, "edges:0-1,0-2,0-3,1-2,1-3,2-3")
	if err != nil {
		t.Fatal(err)
	}
	ringIn := AllToAll(4)
	if p.SignatureOf(gen) == p.SignatureOf(ringIn) {
		t.Fatal("general K_4 host shares a cache signature with ring AllToAll(4)")
	}
	gcv, err := p.CoverInstance(context.Background(), gen)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := p.CoverInstance(context.Background(), ringIn)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(gcv, gen); err != nil {
		t.Fatalf("general cover invalid: %v", err)
	}
	if err := Verify(rcv, ringIn); err != nil {
		t.Fatalf("ring covering invalid: %v", err)
	}
	if gcv.TotalLength() != 8 {
		t.Fatalf("general K_4 cover length %d, want the cubic optimum 4/3·m = 8", gcv.TotalLength())
	}
}
