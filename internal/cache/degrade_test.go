package cache

import (
	"context"
	"strings"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// TestDegradeSignatureDimension pins the `;g=deg` dimension: degraded
// and full-budget requests for one instance occupy distinct entries, so
// a degraded covering can never poison the cache for a full-budget
// caller.
func TestDegradeSignatureDimension(t *testing.T) {
	in := instance.AllToAll(9)
	full := Signature(in, Options{})
	deg := Signature(in, Options{Degrade: true})
	if full == deg {
		t.Fatalf("degraded signature %q equals full signature", deg)
	}
	if !strings.HasSuffix(deg, ";g=deg") {
		t.Fatalf("degraded signature %q lacks the ;g=deg dimension", deg)
	}
	if got := Signature(in, Options{Strategy: "greedy", Degrade: true}); !strings.Contains(got, ";s=greedy;g=deg") {
		t.Fatalf("combined options signature %q lacks both dimensions", got)
	}
}

// TestCoverDegraded checks the degraded pipeline end-to-end through the
// cache: the result is verified, marked Degraded, carries no optimality
// claim, and does not contaminate the full-budget entry.
func TestCoverDegraded(t *testing.T) {
	p := New(8)
	in := instance.AllToAll(9)
	res, hit, err := p.CoverCtx(context.Background(), in, Options{Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first degraded request reported a hit")
	}
	if !res.Degraded {
		t.Fatal("degraded pipeline result not marked Degraded")
	}
	if res.Optimal {
		t.Fatal("degraded result claims optimality")
	}
	if err := cover.Verify(res.Covering, in.Demand); err != nil {
		t.Fatalf("degraded covering failed verification: %v", err)
	}

	// The full-budget entry is computed independently and is optimal for
	// K_9 (the paper machinery), proving the degraded entry did not leak.
	fullRes, hit, err := p.CoverCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("full request hit the degraded entry")
	}
	if fullRes.Degraded {
		t.Fatal("full-budget result marked Degraded")
	}
	if !fullRes.Optimal {
		t.Fatal("full-budget K_9 result lost its optimality")
	}

	// Warm repeats on each dimension keep their provenance.
	res2, hit, err := p.CoverCtx(context.Background(), in, Options{Degrade: true})
	if err != nil || !hit || !res2.Degraded {
		t.Fatalf("warm degraded repeat = (%+v, %v, %v), want degraded hit", res2.Degraded, hit, err)
	}
}

// TestCoverDegradedGeneral checks the degraded path on a general host:
// the anytime scc members produce a verified cover with no optimality
// claim.
func TestCoverDegradedGeneral(t *testing.T) {
	p := New(8)
	in, err := instance.Parse(10, "petersen")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := p.CoverCtx(context.Background(), in, Options{Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Optimal {
		t.Fatalf("degraded general result = (Degraded=%v, Optimal=%v), want (true, false)", res.Degraded, res.Optimal)
	}
	if err := cover.VerifyGeneral(res.Covering, in.Host); err != nil {
		t.Fatalf("degraded general cover failed verification: %v", err)
	}
}

// TestLookupProbe checks the stale-serve probe: misses before
// computation, hits (with a private clone) after, and never computes.
func TestLookupProbe(t *testing.T) {
	p := New(8)
	in := instance.AllToAll(9)
	if _, ok := p.Lookup(in, Options{}); ok {
		t.Fatal("Lookup hit an empty cache")
	}
	want, _, err := p.CoverCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := p.Lookup(in, Options{})
	if !ok {
		t.Fatal("Lookup missed a cached entry")
	}
	if got.Covering.Size() != want.Covering.Size() || got.Optimal != want.Optimal {
		t.Fatalf("Lookup = %+v, want the cached result", got)
	}
	// Clone isolation: mutating the probe result must not corrupt the
	// cache.
	got.Covering.Cycles = nil
	again, ok := p.Lookup(in, Options{})
	if !ok || again.Covering.Size() != want.Covering.Size() {
		t.Fatal("Lookup clone mutation corrupted the cached entry")
	}
	// The degraded dimension is a distinct probe key.
	if _, ok := p.Lookup(in, Options{Degrade: true}); ok {
		t.Fatal("Lookup(full) satisfied a degraded probe")
	}
	if _, ok := p.LookupNetwork(in, Options{}); ok {
		t.Fatal("LookupNetwork hit before any network was planned")
	}
	if _, _, err := p.NetworkCtx(context.Background(), in, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.LookupNetwork(in, Options{}); !ok {
		t.Fatal("LookupNetwork missed a cached network")
	}
}
