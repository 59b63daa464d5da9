package instance

import (
	"math"
	"strings"
	"testing"
)

func TestAllToAll(t *testing.T) {
	in := AllToAll(7)
	if in.N() != 7 || in.Requests() != 21 {
		t.Errorf("K7: N=%d requests=%d", in.N(), in.Requests())
	}
	if in.Name == "" {
		t.Error("instances must be named")
	}
}

func TestLambda(t *testing.T) {
	in := Lambda(5, 3)
	if in.Requests() != 30 {
		t.Errorf("3K5: requests = %d, want 30", in.Requests())
	}
	if in.Demand.Multiplicity(0, 4) != 3 {
		t.Errorf("3K5: multiplicity = %d, want 3", in.Demand.Multiplicity(0, 4))
	}
}

func TestNeighbors(t *testing.T) {
	in := Neighbors(6)
	if in.Requests() != 6 {
		t.Errorf("C6 demand: %d requests, want 6", in.Requests())
	}
	if !in.Demand.HasEdge(5, 0) {
		t.Error("neighbour demand must wrap")
	}
	if in.Demand.HasEdge(0, 2) {
		t.Error("no chord demands in the neighbour instance")
	}
}

func TestHub(t *testing.T) {
	in := Hub(6, 2)
	if in.Requests() != 5 {
		t.Errorf("hub: %d requests, want 5", in.Requests())
	}
	for v := 0; v < 6; v++ {
		if v == 2 {
			continue
		}
		if !in.Demand.HasEdge(2, v) {
			t.Errorf("hub must reach node %d", v)
		}
	}
	if in.Demand.Degree(2) != 5 {
		t.Errorf("hub degree = %d, want 5", in.Demand.Degree(2))
	}
}

func TestRandomSymmetricReproducible(t *testing.T) {
	a, _ := RandomSymmetric(12, 0.4, 7)
	b, _ := RandomSymmetric(12, 0.4, 7)
	if a.Requests() != b.Requests() {
		t.Fatal("same seed must give same instance")
	}
	ea, eb := a.Demand.Edges(), b.Demand.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed must give same edges")
		}
	}
	c, _ := RandomSymmetric(12, 0.4, 8)
	if c.Requests() == a.Requests() {
		// Not impossible, but the edge sets should differ.
		same := true
		ec := c.Demand.Edges()
		for i := range ea {
			if i >= len(ec) || ea[i] != ec[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical instances")
		}
	}
}

func TestRandomSymmetricDensityClamp(t *testing.T) {
	lo, err := RandomSymmetric(8, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := lo.Requests(); got != 0 {
		t.Errorf("density<0: %d requests, want 0", got)
	}
	hi, err := RandomSymmetric(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := hi.Requests(); got != 28 {
		t.Errorf("density>1: %d requests, want all 28", got)
	}
}

func TestRandomSymmetricRejectsNonFinite(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RandomSymmetric(8, d, 1); err == nil {
			t.Errorf("density %v: want error, got none", d)
		}
	}
}

// TestParseRejectsNonFiniteDensity: strconv.ParseFloat happily accepts
// "NaN" and "Inf", so the parser must reject them itself.
func TestParseRejectsNonFiniteDensity(t *testing.T) {
	for _, spec := range []string{"random:NaN:1", "random:Inf:1", "random:-Inf:1", "random:+Inf:7"} {
		if _, err := Parse(9, spec); err == nil {
			t.Errorf("Parse(9, %q): want error, got none", spec)
		}
	}
}

// TestParseErrorsNameValidRanges pins the error-message contract: every
// spec rejection tells the caller what would have been accepted.
func TestParseErrorsNameValidRanges(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring the error must carry
	}{
		{"hub:9", "[0, 9)"},
		{"hub:-1", "[0, 9)"},
		{"hub:x", "hub:<node>"},
		{"lambda:0", "[1, 1048576]"},
		{"lambda:9999999999", "[1, 1048576]"},
		{"lambda:x", "lambda:<k>"},
		{"random:0.5", "random:<density>:<seed>"},
		{"random:x:1", "random:<density>:<seed>"},
		{"random:NaN:1", "finite number in [0, 1]"},
		{"bogus", "alltoall, lambda:<k>, hub:<node>, neighbors, or random:<density>:<seed>"},
	}
	for _, tc := range cases {
		_, err := Parse(9, tc.spec)
		if err == nil {
			t.Errorf("Parse(9, %q): want error, got none", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(9, %q) error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
}

// TestParseSmallNErrors: sizes the ring families cannot take are errors
// that name the valid range, not panics from the graph constructors.
func TestParseSmallNErrors(t *testing.T) {
	for _, tc := range []struct {
		n    int
		spec string
		want string
	}{
		{2, "neighbors", "n >= 3"},
		{0, "neighbors", "n >= 3"},
		{-1, "alltoall", "n >= 0"},
		{-1, "lambda:2", "n >= 0"},
		{-5, "random:0.5:1", "n >= 0"},
	} {
		_, err := Parse(tc.n, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%d, %q) err = %v, want one naming %q", tc.n, tc.spec, err, tc.want)
		}
	}
}

// FuzzParse drives every spec family with n reduced into [0, 64]. Parse
// must never panic; a success has exactly n vertices, and a general host
// is connected and bridgeless.
func FuzzParse(f *testing.F) {
	for _, seed := range []struct {
		n    int
		spec string
	}{
		{7, "alltoall"}, {6, "lambda:3"}, {9, "hub:4"}, {8, "neighbors"}, {12, "random:0.4:7"},
		{10, "petersen"}, {18, "blanusa:2"}, {20, "flower:5"}, {8, "prism:4"}, {12, "cubic:3"},
		{4, "edges:0-1,1-2,2-3,3-0,0-2,1-3"}, {3, "adj:1,2;0,2;0,1"},
		{10, "prism:5000"}, {10, "flower:2501"}, {10, "flower:1000001"}, {10, "prism:333338"},
		{10, "adj:" + strings.Repeat(";", 999)},
		{2, "neighbors"}, {-1, "alltoall"},
	} {
		f.Add(seed.n, seed.spec)
	}
	f.Fuzz(func(t *testing.T, n int, spec string) {
		n = int(uint(n) % 65)
		in, err := Parse(n, spec)
		if err != nil {
			return
		}
		if in.N() != n {
			t.Fatalf("Parse(%d, %q) returned %d vertices", n, spec, in.N())
		}
		if in.IsGeneral() && (!in.Host.Connected(false) || !in.Host.Bridgeless()) {
			t.Fatalf("Parse(%d, %q) admitted an uncoverable host", n, spec)
		}
	})
}

// TestZeroValueInstanceIsNilSafe: the zero Instance (what Parse returns
// beside an error) must answer size queries with 0, not panic.
func TestZeroValueInstanceIsNilSafe(t *testing.T) {
	var in Instance
	if in.N() != 0 || in.Requests() != 0 {
		t.Errorf("zero instance: N=%d requests=%d, want 0/0", in.N(), in.Requests())
	}
	bad, err := Parse(9, "hub:99")
	if err == nil {
		t.Fatal("want parse error")
	}
	if bad.N() != 0 || bad.Requests() != 0 {
		t.Errorf("error-path instance: N=%d requests=%d, want 0/0", bad.N(), bad.Requests())
	}
}

func TestFromPairs(t *testing.T) {
	in, err := FromPairs(5, [][2]int{{0, 2}, {2, 0}, {1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if in.Demand.Multiplicity(0, 2) != 2 {
		t.Errorf("repeated pair must accumulate multiplicity, got %d", in.Demand.Multiplicity(0, 2))
	}
	if _, err := FromPairs(5, [][2]int{{0, 7}}); err == nil {
		t.Error("out-of-range pair: want error")
	}
	if _, err := FromPairs(5, [][2]int{{3, 3}}); err == nil {
		t.Error("self request: want error")
	}
}
