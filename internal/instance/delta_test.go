package instance

import (
	"strings"
	"testing"

	"github.com/cyclecover/cyclecover/internal/graph"
)

func TestParseDeltaTable(t *testing.T) {
	good := []struct {
		spec string
		want Delta
	}{
		{"add:0:4", Delta{Kind: DeltaAdd, U: 0, V: 4}},
		{"remove:3:1", Delta{Kind: DeltaRemove, U: 3, V: 1}},
		{"fail:2:7", Delta{Kind: DeltaFail, U: 2, V: 7}},
		{"set:5:6:0", Delta{Kind: DeltaSet, U: 5, V: 6, M: 0}},
		{"set:5:6:3", Delta{Kind: DeltaSet, U: 5, V: 6, M: 3}},
	}
	for _, c := range good {
		d, err := ParseDelta(c.spec)
		if err != nil {
			t.Errorf("ParseDelta(%q): %v", c.spec, err)
			continue
		}
		if d != c.want {
			t.Errorf("ParseDelta(%q) = %+v, want %+v", c.spec, d, c.want)
		}
		// String is the inverse of ParseDelta on canonical specs.
		if d.String() != c.spec {
			t.Errorf("ParseDelta(%q).String() = %q", c.spec, d.String())
		}
	}

	bad := []string{
		"", "add", "add:1", "add:1:2:3", "tweak:1:2", "add:x:2", "add:1:y",
		"set:1:2", "set:1:2:x", "set:1:2:-1", "set:1:2:1048577", "fail:1:2:3",
	}
	for _, spec := range bad {
		if _, err := ParseDelta(spec); err == nil {
			t.Errorf("ParseDelta(%q) accepted, want error", spec)
		}
	}
}

func TestDeltaApply(t *testing.T) {
	parent := graph.Complete(6) // every pair once

	t.Run("add increments one pair only", func(t *testing.T) {
		child, err := Delta{Kind: DeltaAdd, U: 0, V: 3}.Apply(parent)
		if err != nil {
			t.Fatal(err)
		}
		if got := child.Mult(0, 3); got != 2 {
			t.Fatalf("Mult(0,3) = %d, want 2", got)
		}
		if child.M() != parent.M()+1 {
			t.Fatalf("child M = %d, want %d", child.M(), parent.M()+1)
		}
		if parent.Mult(0, 3) != 1 {
			t.Fatal("Apply mutated the parent")
		}
	})

	t.Run("remove decrements, errors when absent", func(t *testing.T) {
		child, err := Delta{Kind: DeltaRemove, U: 1, V: 4}.Apply(parent)
		if err != nil {
			t.Fatal(err)
		}
		if child.Mult(1, 4) != 0 || child.M() != parent.M()-1 {
			t.Fatalf("remove bookkeeping: mult=%d M=%d", child.Mult(1, 4), child.M())
		}
		if _, err := (Delta{Kind: DeltaRemove, U: 1, V: 4}).Apply(child); err == nil {
			t.Fatal("removing an absent pair must error")
		}
	})

	t.Run("fail drops whole multiplicity, absent pair is a no-op", func(t *testing.T) {
		multi := graph.New(6)
		multi.AddEdgeMulti(0, 1, 3)
		child, err := Delta{Kind: DeltaFail, U: 0, V: 1}.Apply(multi)
		if err != nil {
			t.Fatal(err)
		}
		if child.Mult(0, 1) != 0 || child.M() != 0 {
			t.Fatalf("fail left mult=%d M=%d", child.Mult(0, 1), child.M())
		}
		// Failing an already-absent pair models "the link is gone": valid.
		if _, err := (Delta{Kind: DeltaFail, U: 0, V: 1}).Apply(child); err != nil {
			t.Fatalf("failing an absent pair: %v", err)
		}
	})

	t.Run("set reaches the target from either side", func(t *testing.T) {
		for _, m := range []int{0, 1, 4} {
			child, err := Delta{Kind: DeltaSet, U: 2, V: 5, M: m}.Apply(parent)
			if err != nil {
				t.Fatal(err)
			}
			if got := child.Mult(2, 5); got != m {
				t.Fatalf("set:%d gave mult %d", m, got)
			}
		}
	})

	t.Run("invalid endpoints", func(t *testing.T) {
		for _, d := range []Delta{
			{Kind: DeltaAdd, U: -1, V: 2},
			{Kind: DeltaAdd, U: 0, V: 6},
			{Kind: DeltaAdd, U: 3, V: 3},
		} {
			if _, err := d.Apply(parent); err == nil {
				t.Errorf("%s accepted, want error", d)
			}
		}
	})

	t.Run("nil parent", func(t *testing.T) {
		if _, err := (Delta{Kind: DeltaAdd, U: 0, V: 1}).Apply(nil); err == nil {
			t.Fatal("nil parent accepted")
		}
	})
}

func TestDeltaApplyTo(t *testing.T) {
	parent := Instance{Name: "all-to-all K_6", Demand: graph.Complete(6)}
	child, err := Delta{Kind: DeltaAdd, U: 0, V: 2}.ApplyTo(parent)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(child.Name, parent.Name) || !strings.Contains(child.Name, "add:0:2") {
		t.Fatalf("child name %q lacks provenance", child.Name)
	}
	if child.N() != 6 || child.Demand.M() != parent.Demand.M()+1 {
		t.Fatalf("child shape wrong: n=%d M=%d", child.N(), child.Demand.M())
	}
}

// FuzzParseDelta drives the delta decoder with arbitrary specs. A spec
// that parses must round-trip through String, and applying it to a small
// K_n must either fail or change exactly the named pair, to the
// multiplicity the kind promises, never panic.
func FuzzParseDelta(f *testing.F) {
	for _, spec := range []string{
		"add:0:4", "remove:3:1", "fail:2:7", "set:5:6:0", "set:5:6:3", "set:0:1:1048576",
		"add:+1:02", "add:-1:2", "add:1:1", "fail:0:99", "set:1:2:-1", "tweak:1:2", "add:1:2:3", "",
	} {
		f.Add(spec, uint8(7))
	}
	f.Fuzz(func(t *testing.T, spec string, size uint8) {
		d, err := ParseDelta(spec)
		if err != nil {
			return
		}
		again, err := ParseDelta(d.String())
		if err != nil || again != d {
			t.Fatalf("ParseDelta(%q) = %+v, but its String %q parses to (%+v, %v)", spec, d, d.String(), again, err)
		}
		n := 3 + int(size%6)
		parent := AllToAll(n)
		child, err := d.ApplyTo(parent)
		if err != nil {
			return
		}
		if parent.Requests() != n*(n-1)/2 {
			t.Fatalf("%s mutated its parent", d)
		}
		if child.N() != n {
			t.Fatalf("%s on K_%d: child has %d vertices", d, n, child.N())
		}
		got := child.Demand.Mult(d.U, d.V)
		want := map[DeltaKind]int{DeltaAdd: 2, DeltaRemove: 0, DeltaFail: 0, DeltaSet: d.M}[d.Kind]
		if got != want {
			t.Fatalf("%s on K_%d: pair multiplicity %d, want %d", d, n, got, want)
		}
		if child.Requests()-got != parent.Requests()-1 {
			t.Fatalf("%s on K_%d changed a pair it does not name", d, n)
		}
	})
}
