package instance

import (
	"runtime"
	"strings"
	"testing"
)

func TestGeneralAdmission(t *testing.T) {
	// Each rejected host names why no cycle cover can exist.
	for _, tc := range []struct {
		name string
		spec string
		want string // substring of the admission error
	}{
		{"bridge", "edges:0-1,1-2,2-0,2-3,3-4,4-5,5-3", "bridge"},
		{"disconnected", "edges:0-1,1-2,2-0,3-4,4-5,5-3", "disconnected"},
		{"isolated vertex", "edges:0-1,1-2,2-0", "disconnected"},
		{"self-loop", "edges:0-0,1-2", "self-loop"},
		{"out of range", "edges:0-9", "outside"},
		{"empty", "edges:", "empty"},
		{"malformed", "edges:0-1-2", "bad edge"},
	} {
		n := 6
		if tc.name == "isolated vertex" {
			n = 4
		}
		if _, err := Parse(n, tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Parse(%d, %q) err = %v, want substring %q", tc.name, n, tc.spec, err, tc.want)
		}
	}

	// A doubled bridge is not a bridge: parallel edges are admissible.
	in, err := Parse(6, "edges:0-1,1-2,2-0,2-3,2-3,3-4,4-5,5-3")
	if err != nil {
		t.Fatalf("doubled bridge rejected: %v", err)
	}
	if !in.IsGeneral() || in.Host.M() != 8 {
		t.Fatalf("general instance malformed: %+v", in)
	}
}

func TestParseGeneralFamilies(t *testing.T) {
	for _, tc := range []struct {
		spec string
		n    int
		m    int
	}{
		{"petersen", 10, 15},
		{"blanusa:1", 18, 27},
		{"blanusa:2", 18, 27},
		{"flower:5", 20, 30},
		{"flower:7", 28, 42},
		{"prism:4", 8, 12},
		{"cubic:7", 12, 18},
		{"edges:0-1,1-2,2-3,3-0,0-2,1-3", 4, 6},
		{"adj:1,2,3;0,2,3;0,1,3;0,1,2", 4, 6},
	} {
		in, err := Parse(tc.n, tc.spec)
		if err != nil {
			t.Fatalf("Parse(%d, %q): %v", tc.n, tc.spec, err)
		}
		if !in.IsGeneral() {
			t.Fatalf("%q: not marked general", tc.spec)
		}
		if in.N() != tc.n || in.Host.M() != tc.m {
			t.Fatalf("%q: n=%d m=%d, want %d/%d", tc.spec, in.N(), in.Host.M(), tc.n, tc.m)
		}
		if in.Demand != in.Host {
			t.Fatalf("%q: Demand must alias Host for general instances", tc.spec)
		}
	}

	// Fixed-size families reject a mismatched ring size instead of
	// silently overriding it.
	if _, err := Parse(12, "petersen"); err == nil {
		t.Fatal("petersen with n=12 accepted")
	}
	if _, err := Parse(10, "flower:5"); err == nil {
		t.Fatal("flower:5 with n=10 accepted")
	}
	// Malformed family parameters.
	for _, spec := range []string{"blanusa:3", "blanusa:x", "flower:4", "flower:1", "prism:2", "cubic:zzz"} {
		if _, err := Parse(20, spec); err == nil {
			t.Fatalf("Parse(%q) accepted", spec)
		}
	}
	// Ring families still parse: the general dispatch must not shadow them.
	in, err := Parse(7, "alltoall")
	if err != nil || in.IsGeneral() {
		t.Fatalf("alltoall broken after general dispatch: %v %+v", err, in)
	}
}

// oversizedSpecs name fixed families far larger than n = 10. Building
// any of them is Θ(size²) in time and memory (flower:1000001 alone
// would ask for about 32 TB).
var oversizedSpecs = []string{
	"prism:5000",
	"flower:2501",
	"adj:" + strings.Repeat(";", 19_999), // 20 000 empty rows
	"flower:1000001",
	"prism:333338",
	"prism:9223372036854775807",
}

// TestParseOversizedFamilyBuildsNothing: an oversized fixed family is
// rejected before its host is built, so the rejection allocates next to
// nothing.
func TestParseOversizedFamilyBuildsNothing(t *testing.T) {
	for _, spec := range oversizedSpecs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(10, spec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("Parse(10, %.20q…) accepted", spec)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("Parse(10, %.20q…) allocated %d bytes before refusing, want < 1 MiB", spec, alloc)
		}
	}
}

func TestParseAdjacencySymmetry(t *testing.T) {
	// Asymmetric in both directions: listed only by the lower endpoint,
	// and only by the higher.
	if _, err := ParseAdjacency("1,2;0,2;0,1"); err != nil {
		t.Fatalf("triangle rejected: %v", err)
	}
	if _, err := ParseAdjacency("1,2;0;0,1"); err == nil {
		t.Fatal("row 2 lists 1 unreciprocated — accepted")
	}
	if _, err := ParseAdjacency("1;0,2;1,0"); err == nil {
		t.Fatal("row 2 lists 0 unreciprocated — accepted")
	}
	if _, err := ParseAdjacency("1,2;0,2;0,1,0"); err == nil {
		t.Fatal("multiplicity mismatch accepted")
	}
	if _, err := ParseAdjacency("1;0"); err == nil {
		t.Fatal("two-row adjacency accepted")
	}
}

// FuzzParseAdjacency feeds arbitrary strings through both text parse
// formats: any outcome but a clean error or a valid general instance —
// in particular any panic from AddEdge on unvalidated input — is a bug.
func FuzzParseAdjacency(f *testing.F) {
	f.Add("1,2;0,2;0,1")
	f.Add("1;0,2;1,0")
	f.Add("0;;;")
	f.Add("-1;0")
	f.Add("1,1,1;0,0,0;;")
	f.Add("9999999999999999999;")
	f.Fuzz(func(t *testing.T, body string) {
		if in, err := ParseAdjacency(body); err == nil {
			if !in.IsGeneral() || in.Host.N() < MinGeneralN {
				t.Fatalf("ParseAdjacency(%q) returned malformed instance %+v", body, in)
			}
			if !in.Host.Connected(false) || !in.Host.Bridgeless() {
				t.Fatalf("ParseAdjacency(%q) admitted an uncoverable host", body)
			}
		}
		// The edge-list format shares the validation layer; drive it with
		// the same corpus (different grammar, same no-panic contract).
		if in, err := ParseEdgeList(8, body); err == nil {
			if !in.IsGeneral() || !in.Host.Bridgeless() {
				t.Fatalf("ParseEdgeList(%q) admitted an uncoverable host", body)
			}
		}
	})
}
