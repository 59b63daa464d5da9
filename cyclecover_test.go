package cyclecover

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestFacadeCoverAllToAll(t *testing.T) {
	for _, n := range []int{3, 4, 7, 10} {
		cv, optimal, err := CoverAllToAll(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !optimal {
			t.Errorf("n=%d: want optimal", n)
		}
		if err := Verify(cv, AllToAll(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := VerifyOptimalAllToAll(cv); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if _, _, err := CoverAllToAll(2); err == nil {
		t.Error("n=2: want error")
	}
}

func TestFacadeRhoAndBounds(t *testing.T) {
	if Rho(9) != 10 || LowerBound(9) != 10 {
		t.Error("ρ(9) = 10")
	}
	comp, ok := TheoremComposition(7)
	if !ok || comp.C3 != 3 || comp.C4 != 3 {
		t.Errorf("TheoremComposition(7) = %v, %v", comp, ok)
	}
}

func TestFacadeCoverInstance(t *testing.T) {
	// Complete instance routes through the optimal machinery.
	cv, err := CoverInstance(context.Background(), AllToAll(7))
	if err != nil {
		t.Fatal(err)
	}
	if cv.Size() != Rho(7) {
		t.Errorf("complete instance: %d cycles, want ρ = %d", cv.Size(), Rho(7))
	}
	// Partial demand goes greedy but must verify.
	hub := Hub(9, 0)
	cvh, err := CoverInstance(context.Background(), hub)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(cvh, hub); err != nil {
		t.Fatal(err)
	}
	// Uniform multigraph demand routes through the λ-composition.
	lam := LambdaAllToAll(6, 2)
	cvl, err := CoverInstance(context.Background(), lam)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(cvl, lam); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHandBuiltCovering(t *testing.T) {
	r, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	cv := NewCovering(r)
	for _, verts := range [][]int{{0, 1, 2, 3}, {0, 1, 3}, {0, 2, 3}} {
		c, err := NewCycle(r, verts...)
		if err != nil {
			t.Fatal(err)
		}
		cv.Add(c)
	}
	if err := VerifyOptimalAllToAll(cv); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePlanAndSimulate(t *testing.T) {
	cv, _, err := CoverAllToAll(8)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := PlanWDM(cv, AllToAll(8))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Wavelengths() != 2*cv.Size() {
		t.Error("two wavelengths per subnetwork")
	}
	if DefaultCostModel().Cost(nw) <= 0 {
		t.Error("cost must be positive")
	}
	sim := NewSimulator(nw)
	sweep, err := sim.SweepCtx(context.Background(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sweep.AllRestored {
		t.Error("single-failure survivability violated")
	}
}

func TestFacadeRandomInstanceReproducible(t *testing.T) {
	a, err := RandomInstance(10, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomInstance(10, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests() != b.Requests() {
		t.Error("same seed, same instance")
	}
	if _, err := RandomInstance(10, math.NaN(), 3); err == nil {
		t.Error("NaN density: want error")
	}
}

func TestDescribe(t *testing.T) {
	cv, _, _ := CoverAllToAll(5)
	d := Describe(cv)
	if !strings.Contains(d, "C_5") || !strings.Contains(d, "3 cycles") {
		t.Errorf("Describe = %q", d)
	}
}
