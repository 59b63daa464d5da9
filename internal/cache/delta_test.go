package cache

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
)

func mustDelta(t *testing.T, spec string) instance.Delta {
	t.Helper()
	d, err := instance.ParseDelta(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// planParent plans an instance and returns its signature, ready for
// ResolveDelta.
func planParent(t *testing.T, p *Plans, in instance.Instance, opts Options) string {
	t.Helper()
	if _, _, err := p.CoverCtx(context.Background(), in, opts); err != nil {
		t.Fatal(err)
	}
	return Signature(in, opts)
}

func TestResolveDeltaErrors(t *testing.T) {
	p := New(0)
	d := mustDelta(t, "add:0:1")

	// Unknown parent: nothing planned yet.
	if _, err := p.ResolveDelta("n=9;d=k1", d); !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("unplanned parent: err = %v, want ErrUnknownParent", err)
	}

	in := instance.AllToAll(9)
	sig := planParent(t, p, in, Options{})

	// A bogus signature string is just an unknown parent, not a panic.
	if _, err := p.ResolveDelta("garbage", d); !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("garbage parent: err = %v, want ErrUnknownParent", err)
	}
	// Deltas invalid against the parent's demand wrap ErrBadDelta.
	for _, spec := range []string{"add:0:9", "add:3:3", "remove:0:0"} {
		if _, err := p.ResolveDelta(sig, mustDelta(t, spec)); !errors.Is(err, ErrBadDelta) {
			t.Errorf("%s: err = %v, want ErrBadDelta", spec, err)
		}
	}
}

func TestResolveDeltaDerivesChild(t *testing.T) {
	p := New(0)
	in := instance.AllToAll(9)
	sig := planParent(t, p, in, Options{})

	dp, err := p.ResolveDelta(sig, mustDelta(t, "fail:2:7"))
	if err != nil {
		t.Fatal(err)
	}
	if dp.ParentSig != sig || dp.ChildSig == "" || dp.ChildSig == sig {
		t.Fatalf("signatures: parent=%q child=%q", dp.ParentSig, dp.ChildSig)
	}
	if dp.Child.N() != 9 || dp.Child.Demand.Mult(2, 7) != 0 {
		t.Fatalf("child demand wrong: n=%d mult(2,7)=%d", dp.Child.N(), dp.Child.Demand.Mult(2, 7))
	}
	// The parent's demand must be untouched.
	if dp.Parent.Demand.Mult(2, 7) != 1 {
		t.Fatal("ResolveDelta mutated the parent demand")
	}
	// Resolving the same delta twice derives the same child signature —
	// the property the coalescing and cache admission hang off.
	dp2, err := p.ResolveDelta(sig, mustDelta(t, "fail:2:7"))
	if err != nil {
		t.Fatal(err)
	}
	if dp2.ChildSig != dp.ChildSig {
		t.Fatalf("child signature not canonical: %q != %q", dp.ChildSig, dp2.ChildSig)
	}
}

// TestCoverDeltaWarmRepairAdmitsChild pins the tentpole contract at the
// cache layer: the delta build warm-repairs, verifies, and admits the
// child under its own signature, so both repeat deltas and cold requests
// for the same child are hits.
func TestCoverDeltaWarmRepairAdmitsChild(t *testing.T) {
	p := New(0)
	in := instance.AllToAll(11)
	sig := planParent(t, p, in, Options{})

	dp, err := p.ResolveDelta(sig, mustDelta(t, "fail:2:7"))
	if err != nil {
		t.Fatal(err)
	}
	res, hit, err := p.CoverDeltaCtx(context.Background(), dp)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first delta build reported a cache hit")
	}
	if res.Method != construct.MethodDelta {
		t.Fatalf("method = %q, want %q (warm repair)", res.Method, construct.MethodDelta)
	}
	if err := cover.Verify(res.Covering, dp.Child.Demand); err != nil {
		t.Fatalf("repaired covering does not verify: %v", err)
	}

	// Repeat delta: cache hit with the same answer.
	res2, hit2, err := p.CoverDeltaCtx(context.Background(), dp)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 || res2.Covering.Size() != res.Covering.Size() {
		t.Fatalf("repeat delta: hit=%v size=%d, want hit with size %d", hit2, res2.Covering.Size(), res.Covering.Size())
	}
	// Cold plan of the same child instance: also a hit — the child was
	// admitted under its canonical signature, not a delta-private key.
	res3, hit3, err := p.CoverCtx(context.Background(), dp.Child, dp.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit3 || res3.Method != construct.MethodDelta {
		t.Fatalf("cold request for the child: hit=%v method=%q, want hit with the repaired plan", hit3, res3.Method)
	}

	// Returned coverings are private clones: mutating one must not leak.
	res.Covering.Cycles = nil
	res4, _, err := p.CoverDeltaCtx(context.Background(), dp)
	if err != nil {
		t.Fatal(err)
	}
	if res4.Covering.Size() == 0 {
		t.Fatal("caller mutation reached the cached covering")
	}
}

// TestCoverDeltaStrategyParentRebuildsCold pins the strategy contract: a
// parent planned under an explicit strategy replans children through that
// strategy, never through warm repair.
func TestCoverDeltaStrategyParentRebuildsCold(t *testing.T) {
	p := New(0)
	in := instance.AllToAll(9)
	sig := planParent(t, p, in, Options{Strategy: "greedy"})

	dp, err := p.ResolveDelta(sig, mustDelta(t, "add:0:4"))
	if err != nil {
		t.Fatal(err)
	}
	if dp.Opts.Strategy != "greedy" {
		t.Fatalf("child options lost the parent's strategy: %+v", dp.Opts)
	}
	res, _, err := p.CoverDeltaCtx(context.Background(), dp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method == construct.MethodDelta {
		t.Fatal("strategy parent must not warm-repair its children")
	}
	if err := cover.Verify(res.Covering, dp.Child.Demand); err != nil {
		t.Fatal(err)
	}
}

// TestCoverDeltaChainsAcrossGenerations drives repair through repair:
// the child of a delta is itself a valid parent, demand provenance
// included, so replanning composes across a sequence of changes.
func TestCoverDeltaChainsAcrossGenerations(t *testing.T) {
	p := New(0)
	in := instance.AllToAll(10)
	sig := planParent(t, p, in, Options{})

	for gen, spec := range []string{"fail:0:5", "add:1:6", "set:2:7:3"} {
		dp, err := p.ResolveDelta(sig, mustDelta(t, spec))
		if err != nil {
			t.Fatalf("generation %d (%s): %v", gen, spec, err)
		}
		res, _, err := p.CoverDeltaCtx(context.Background(), dp)
		if err != nil {
			t.Fatalf("generation %d (%s): %v", gen, spec, err)
		}
		if err := cover.Verify(res.Covering, dp.Child.Demand); err != nil {
			t.Fatalf("generation %d (%s): %v", gen, spec, err)
		}
		sig = dp.ChildSig
	}
}

// TestCoverDeltaBoundsOnKn pins what keeping the parent buys on K_n.
// The parent covers every pair, so a remove or fail child needs nothing
// new and answers with at most the parent's ρ(n) cycles, and a single
// add child leaves one unit unserved and answers with at most ρ(n)+1.
// All pairs for n = 5…16, every seventh pair at n = 31.
func TestCoverDeltaBoundsOnKn(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 31} {
		step := 1
		if n == 31 {
			step = 7
		}
		p := New(0)
		sig := planParent(t, p, instance.AllToAll(n), Options{})
		rho := cover.Rho(n)
		k := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if k++; k%step != 0 {
					continue
				}
				for _, kind := range []string{"remove", "fail", "add"} {
					limit := rho
					if kind == "add" {
						limit++
					}
					spec := fmt.Sprintf("%s:%d:%d", kind, u, v)
					dp, err := p.ResolveDelta(sig, mustDelta(t, spec))
					if err != nil {
						t.Fatalf("K_%d %s: %v", n, spec, err)
					}
					res, _, err := p.CoverDeltaCtx(ctx, dp)
					if err != nil {
						t.Fatalf("K_%d %s: %v", n, spec, err)
					}
					if err := cover.Verify(res.Covering, dp.Child.Demand); err != nil {
						t.Fatalf("K_%d %s: %v", n, spec, err)
					}
					if got := res.Covering.Size(); got > limit {
						t.Errorf("K_%d %s: %d cycles (method %s), want at most %d", n, spec, got, res.Method, limit)
					}
				}
			}
		}
	}
}
