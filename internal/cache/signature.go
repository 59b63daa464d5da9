// Package cache memoizes verified coverings and planned WDM networks so
// that long-running callers — the cycled service, the Planner facade and
// the experiment sweeps — compute each instance once and serve every
// repeat from memory.
//
// Results are keyed by a canonical instance signature (ring size, demand
// class, construction options), bounded by an LRU policy, and deduplicated
// in flight: concurrent requests for the same signature trigger exactly
// one computation, with every waiter receiving the same result. Only
// artifacts that pass the independent verifier are admitted to the cache,
// so a cached answer carries the same guarantee as a fresh one. See
// DESIGN.md §5 for the full semantics.
package cache

import (
	"fmt"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// Options select construction variants. Options are part of the cache key:
// the same demand planned under different options occupies distinct
// entries.
type Options struct {
	// Strategy selects the construction strategy by registry name
	// (construct.Strategies: the ring members "closed-form", "exact",
	// "greedy", the general-host members "scc-colour", "scc-exact",
	// "scc-kcycle", "scc-greedy", and "portfolio"). Empty
	// selects construct.Auto — the paper's machinery for λK_n demands,
	// greedy for other ring demands, the scc pipeline for general hosts.
	// Part of the cache key: the same demand under different strategies
	// occupies distinct entries, so a strategy experiment never serves
	// another strategy's covering.
	Strategy string
	// Degrade selects the deadline-degraded pipeline: the anytime
	// portfolio (construct.AnytimeRegistry) instead of the full
	// machinery, with the result marked CoverResult.Degraded. Part of
	// the cache key (`;g=deg`, the same dimension scheme as `;s=`):
	// a degraded covering cached under a tight deadline can never be
	// served to a full-budget caller asking for the real pipeline.
	Degrade bool
}

// Signature returns the canonical cache key for an instance under the
// given options. Two instances with the same ring size and the same
// demand multigraph share a signature regardless of how they were built
// or named: recognised classes (λK_n, including K_n as λ=1) get a compact
// readable form, everything else a content hash of the edge multiset.
//
// General-topology instances get a distinct `t=` component hashing the
// host graph. Without it, a general instance whose host happens to be
// K_n would collapse onto the ring all-to-all signature (UniformLambda
// recognises the host-aliased demand) and the cache would serve a ring
// covering for a host-cover request — a latent complete-graph assumption
// this component closes.
func Signature(in instance.Instance, opts Options) string {
	if in.IsGeneral() {
		return withOptions(fmt.Sprintf("n=%d;t=h%016x", in.N(), demandHash(in.Host)), opts)
	}
	if lam, ok := construct.UniformLambda(in.Demand); ok {
		return SignatureLambda(in.N(), lam, opts)
	}
	return withOptions(fmt.Sprintf("n=%d;d=h%016x", in.N(), demandHash(in.Demand)), opts)
}

// SignatureAllToAll is Signature(instance.AllToAll(n), opts) computed in
// O(1), without materializing the demand graph. Hot callers (the Planner
// facade, the experiment sweeps) key their lookups with it.
func SignatureAllToAll(n int, opts Options) string { return SignatureLambda(n, 1, opts) }

// SignatureLambda is Signature(instance.Lambda(n, lambda), opts) in O(1).
func SignatureLambda(n, lambda int, opts Options) string {
	return withOptions(fmt.Sprintf("n=%d;d=k%d", n, lambda), opts)
}

func withOptions(sig string, opts Options) string {
	if opts.Strategy != "" {
		sig += ";s=" + opts.Strategy
	}
	if opts.Degrade {
		sig += ";g=deg"
	}
	return sig
}

// edgeMultiset is what demandHash reads: the dense ring demand and the
// sparse general host both walk their distinct edges in ascending
// (u, v) order with multiplicities.
type edgeMultiset interface {
	N() int
	ForEachEdge(fn func(u, v, mult int) bool)
}

// demandHash is an FNV-1a fingerprint of the sorted edge multiset: n,
// then (u, v, mult) for each distinct edge in ascending order, each as
// 8 little-endian bytes. Signatures are cache keys and snapshot keys, so
// this byte stream must not change. A host costs O(m), a dense demand
// O(n²).
func demandHash(g edgeMultiset) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	write := func(v int) {
		for i := 0; i < 8; i++ {
			h ^= uint64(v) >> (8 * i) & 0xff
			h *= prime64
		}
	}
	write(g.N())
	g.ForEachEdge(func(u, v, mult int) bool {
		write(u)
		write(v)
		write(mult)
		return true
	})
	return h
}
