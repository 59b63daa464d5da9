package construct

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/cyclecover/cyclecover/internal/instance"
)

// panicStrategy panics on every Solve — the stand-in for a solver bug.
type panicStrategy struct{ name string }

func (p panicStrategy) Name() string { return p.name }
func (p panicStrategy) Solve(context.Context, instance.Instance, Options) (Outcome, error) {
	panic("solver bug: " + p.name)
}

// TestSafeSolveRecoversPanic checks the containment boundary: a
// panicking strategy yields a fingerprinted *PanicError, not a crash.
func TestSafeSolveRecoversPanic(t *testing.T) {
	_, err := SafeSolve(context.Background(), panicStrategy{name: "boom"}, instance.AllToAll(7), Options{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("SafeSolve error = %v, want *PanicError", err)
	}
	if pe.Origin != "strategy:boom" {
		t.Fatalf("Origin = %q, want strategy:boom", pe.Origin)
	}
	if len(pe.Fingerprint) != 8 {
		t.Fatalf("Fingerprint = %q, want 8 hex chars", pe.Fingerprint)
	}
	if !strings.Contains(pe.Value, "solver bug") {
		t.Fatalf("Value = %q does not carry the panic message", pe.Value)
	}
}

// TestPanicFingerprintStable checks one crashing code path maps to one
// fingerprint and distinct paths to distinct fingerprints.
func TestPanicFingerprintStable(t *testing.T) {
	a := Recovered("strategy:x", "index out of range")
	b := Recovered("strategy:x", "index out of range")
	c := Recovered("strategy:y", "index out of range")
	d := Recovered("strategy:x", "nil dereference")
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same panic fingerprints differ: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if a.Fingerprint == c.Fingerprint || a.Fingerprint == d.Fingerprint {
		t.Fatal("distinct panic sites share a fingerprint")
	}
}

// TestSafeSolvePassesThrough checks a healthy strategy is untouched by
// the boundary.
func TestSafeSolvePassesThrough(t *testing.T) {
	out, err := SafeSolve(context.Background(), GreedySweep{}, instance.AllToAll(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Covering == nil || out.Strategy != "greedy" {
		t.Fatalf("unexpected outcome %+v", out)
	}
}

// TestPortfolioSurvivesPanickingMember checks a member panic fails only
// that member: the portfolio still returns the deterministic winner.
func TestPortfolioSurvivesPanickingMember(t *testing.T) {
	p := NewPortfolio(panicStrategy{name: "chaos-member"}, GreedySweep{})
	out, err := p.Solve(context.Background(), instance.AllToAll(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "greedy" {
		t.Fatalf("winner = %q, want greedy", out.Strategy)
	}
	// All members panicking surfaces the PanicError instead of a result.
	p = NewPortfolio(panicStrategy{name: "only-member"})
	_, err = p.Solve(context.Background(), instance.AllToAll(9), Options{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("all-panic portfolio error = %v, want wrapped *PanicError", err)
	}
}

// TestRegisterStrategy checks lookup, listing, and the rejection paths.
func TestRegisterStrategy(t *testing.T) {
	name := fmt.Sprintf("test-registered-%d", len(extraNames()))
	if err := RegisterStrategy(panicStrategy{name: name}); err != nil {
		t.Fatal(err)
	}
	if _, ok := LookupStrategy(name); !ok {
		t.Fatalf("registered strategy %q not resolvable", name)
	}
	found := false
	for _, s := range Strategies() {
		if s == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("Strategies() does not list %q", name)
	}
	if err := RegisterStrategy(panicStrategy{name: name}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := RegisterStrategy(panicStrategy{name: "greedy"}); err == nil {
		t.Fatal("built-in name registration accepted")
	}
	if err := RegisterStrategy(panicStrategy{name: "portfolio"}); err == nil {
		t.Fatal("reserved name registration accepted")
	}
	if err := RegisterStrategy(panicStrategy{name: ""}); err == nil {
		t.Fatal("empty name registration accepted")
	}
	// The default registry and portfolio stay pinned: extras never join.
	for _, s := range Registry() {
		if s.Name() == name {
			t.Fatal("registered strategy leaked into the default registry")
		}
	}
}

// TestDegradedPortfolioRing checks the anytime portfolio on a ring
// instance: greedy wins (the scc members drop out) and the covering
// verifies.
func TestDegradedPortfolioRing(t *testing.T) {
	out, err := NewDegradedPortfolio().Solve(context.Background(), instance.AllToAll(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "greedy" {
		t.Fatalf("degraded ring winner = %q, want greedy", out.Strategy)
	}
	if out.Optimal {
		t.Fatal("degraded result claims optimality")
	}
}

// TestDegradedPortfolioGeneral checks the anytime portfolio on a general
// host returns a valid cover from the scc sub-family.
func TestDegradedPortfolioGeneral(t *testing.T) {
	in, err := instance.Parse(10, "petersen")
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewDegradedPortfolio().Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Covering == nil || len(out.Covering.Cycles) == 0 {
		t.Fatal("degraded general race returned no cover")
	}
	if out.Strategy != "scc-kcycle" && out.Strategy != "scc-greedy" {
		t.Fatalf("degraded general winner = %q, want an scc member", out.Strategy)
	}
}
