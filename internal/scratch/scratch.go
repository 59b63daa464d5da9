// Package scratch provides a small typed free-list for reusable hot-path
// buffers. It wraps sync.Pool behind a generic API so the verifier, the
// sweep engine and the HTTP layer share one idiom for steady-state
// allocation-free scratch state: Get a *T, use it, Put it back.
//
// Values handed to Put must not be retained or read afterwards; a pool
// never zeroes them, so every user is responsible for resetting (or
// epoch-versioning) whatever state it reads. The pool is safe for
// concurrent use and never grows without bound — the runtime reclaims
// idle entries under memory pressure, exactly like a bare sync.Pool.
package scratch

import (
	"math/rand"
	"sync"
)

// Pool is a typed free-list of *T scratch values.
type Pool[T any] struct {
	p sync.Pool
}

// NewPool returns a pool whose Get mints fresh values with newT when the
// free list is empty. newT must not return nil.
func NewPool[T any](newT func() *T) *Pool[T] {
	return &Pool[T]{p: sync.Pool{New: func() any { return newT() }}}
}

// Get returns a scratch value, recycled when one is available.
func (p *Pool[T]) Get() *T { return p.p.Get().(*T) }

// Put returns a scratch value to the pool. The caller must not use x
// afterwards.
func (p *Pool[T]) Put(x *T) { p.p.Put(x) }

// Rands recycles seeded math/rand generators, whose source state is
// about 4.9 KB. Get one, Seed it, draw, and Put it back: Seed resets the
// whole source, so a recycled generator draws exactly what
// rand.New(rand.NewSource(seed)) would.
var Rands = NewPool(func() *rand.Rand { return rand.New(rand.NewSource(1)) })
