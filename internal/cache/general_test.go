package cache

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// TestGeneralSignatureNoRingCollision is the K_n-assumption regression
// for the cache key: a general instance whose host happens to be the
// complete graph aliases its demand to K_n, which UniformLambda
// recognises — without the t= component it would collapse onto the ring
// all-to-all signature and the cache would serve a ring covering for a
// host-cover request.
func TestGeneralSignatureNoRingCollision(t *testing.T) {
	k4, err := instance.Parse(4, "edges:0-1,0-2,0-3,1-2,1-3,2-3")
	if err != nil {
		t.Fatal(err)
	}
	gsig := Signature(k4, Options{})
	rsig := Signature(instance.AllToAll(4), Options{})
	if gsig == rsig {
		t.Fatalf("general K_4 host and ring AllToAll(4) collide on signature %q", gsig)
	}
	if !strings.Contains(gsig, "t=h") {
		t.Fatalf("general signature %q carries no topology component", gsig)
	}
	// Same host parsed through different wire formats: one entry.
	adj, err := instance.Parse(4, "adj:1,2,3;0,2,3;0,1,3;0,1,2")
	if err != nil {
		t.Fatal(err)
	}
	if Signature(adj, Options{}) != gsig {
		t.Fatalf("edge-list and adjacency K_4 signatures differ: %q vs %q",
			gsig, Signature(adj, Options{}))
	}
	// Distinct hosts on the same n: distinct entries.
	pet, err := instance.Parse(10, "petersen")
	if err != nil {
		t.Fatal(err)
	}
	pri, err := instance.Parse(10, "prism:5")
	if err != nil {
		t.Fatal(err)
	}
	if Signature(pet, Options{}) == Signature(pri, Options{}) {
		t.Fatal("Petersen and prism:5 collide on signature")
	}
}

// TestCoverGeneralCachedAndVerified: the general build path must verify
// against the host, cache under the topology signature, and serve
// private clones on repeat calls.
func TestCoverGeneralCachedAndVerified(t *testing.T) {
	p := New(16)
	for _, spec := range []struct {
		n    int
		spec string
		want int
	}{
		{10, "petersen", 21},
		{20, "flower:5", 40},
		{6, "prism:3", 12},
	} {
		in, err := instance.Parse(spec.n, spec.spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.spec, err)
		}
		res, hit, err := p.CoverCtx(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.spec, err)
		}
		if hit {
			t.Fatalf("%s: first request reported a hit", spec.spec)
		}
		if err := cover.VerifyGeneral(res.Covering, in.Host); err != nil {
			t.Fatalf("%s: cached cover invalid: %v", spec.spec, err)
		}
		if got := res.Covering.TotalLength(); got != spec.want {
			t.Fatalf("%s: length %d, want %d", spec.spec, got, spec.want)
		}
		again, hit, err := p.CoverCtx(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("%s warm: %v", spec.spec, err)
		}
		if !hit {
			t.Fatalf("%s: second request missed", spec.spec)
		}
		if &again.Covering.Cycles[0] == &res.Covering.Cycles[0] {
			t.Fatalf("%s: warm result shares Cycles backing with first clone", spec.spec)
		}
	}
}

// TestCoverGeneralVsRingNoCrosstalk: planning the general K_4 host and
// the ring AllToAll(4) through one cache must produce independent
// entries with family-correct covers.
func TestCoverGeneralVsRingNoCrosstalk(t *testing.T) {
	p := New(16)
	k4, err := instance.Parse(4, "edges:0-1,0-2,0-3,1-2,1-3,2-3")
	if err != nil {
		t.Fatal(err)
	}
	gres, _, err := p.CoverCtx(context.Background(), k4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rres, hit, err := p.CoverCtx(context.Background(), instance.AllToAll(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("ring request hit the general entry")
	}
	if err := cover.VerifyGeneral(gres.Covering, k4.Host); err != nil {
		t.Fatalf("general cover invalid: %v", err)
	}
	if err := cover.Verify(rres.Covering, instance.AllToAll(4).Demand); err != nil {
		t.Fatalf("ring covering invalid: %v", err)
	}
	if gres.Covering.TotalLength() != 8 {
		t.Fatalf("general K_4 cover length %d, want the cubic optimum 8", gres.Covering.TotalLength())
	}
}

// TestNetworkRejectsGeneral: WDM planning has no meaning over a general
// host — the cache must refuse rather than route over a phantom ring.
func TestNetworkRejectsGeneral(t *testing.T) {
	p := New(4)
	in, err := instance.Parse(10, "petersen")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.NetworkCtx(context.Background(), in, Options{}); err == nil {
		t.Fatal("Network accepted a general-topology instance")
	} else if !strings.Contains(err.Error(), "ring instances only") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

// TestResolveDeltaRejectsGeneralParent: the delta path rebuilds the
// child from demand provenance alone; a general parent would lose its
// host. Must refuse with ErrBadDelta.
func TestResolveDeltaRejectsGeneralParent(t *testing.T) {
	p := New(4)
	in, err := instance.Parse(10, "petersen")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CoverCtx(context.Background(), in, Options{}); err != nil {
		t.Fatal(err)
	}
	sig := Signature(in, Options{})
	_, err = p.ResolveDelta(sig, instance.Delta{Kind: instance.DeltaAdd, U: 0, V: 2})
	if !errors.Is(err, ErrBadDelta) {
		t.Fatalf("ResolveDelta on general parent: err = %v, want ErrBadDelta", err)
	}
}

// TestCoverGeneralStrategyOption: a named scc strategy routes the
// general build and keys its own entry; a ring-only strategy must fail
// verification-or-construction, never cache.
func TestCoverGeneralStrategyOption(t *testing.T) {
	p := New(16)
	in, err := instance.Parse(10, "petersen")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := p.CoverCtx(context.Background(), in, Options{Strategy: "scc-greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cover.VerifyGeneral(res.Covering, in.Host); err != nil {
		t.Fatalf("scc-greedy cover invalid: %v", err)
	}
	def, hit, err := p.CoverCtx(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("default-pipeline request hit the scc-greedy entry")
	}
	if def.Covering.TotalLength() > res.Covering.TotalLength() {
		t.Fatalf("default pipeline length %d worse than scc-greedy's %d",
			def.Covering.TotalLength(), res.Covering.TotalLength())
	}
	// closed-form is a ring member: it refuses general instances, and the
	// refusal must propagate rather than cache garbage.
	if _, _, err := p.CoverCtx(context.Background(), in, Options{Strategy: "closed-form"}); err == nil {
		t.Fatal("ring-only strategy produced a cached general cover")
	}
}
