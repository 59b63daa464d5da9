// Package fixture exercises the ctxdiscipline analyzer: exported
// context-taking functions must thread or poll their context, and
// exported functions must not hardcode context.Background.
package fixture

import "context"

func workCtx(ctx context.Context) error { return ctx.Err() }

// Flagged: the context is accepted and ignored.
func IgnoresCtx(ctx context.Context) error { // want "never uses its context"
	return nil
}

// Flagged: the context is discarded at the signature.
func BlankCtx(_ context.Context) error { // want "discards its context parameter"
	return nil
}

// Flagged: the context is touched but neither threaded nor polled.
func DanglingCtx(ctx context.Context) error { // want "never threads it into a callee or polls it"
	c := ctx
	_ = c
	return nil
}

// Not flagged: the context reaches a callee.
func ThreadsCtx(ctx context.Context) error {
	return workCtx(ctx)
}

// Not flagged: the context is polled inside the loop.
func PollsCtx(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// Not flagged: a derived context is threaded.
func DerivesCtx(ctx context.Context) error {
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	return workCtx(sub)
}

// Flagged: an exported wrapper that pins Background.
func Blocking() error { // want "Blocking hardcodes context.Background/TODO"
	return workCtx(context.Background())
}

// Flagged: a ctx-taking sibling does not excuse a wrapper pinning
// Background — a blocking operation has one exported form.
func Covered() error { // want "Covered hardcodes context.Background/TODO"
	return CoveredCtx(context.Background())
}

// CoveredCtx is the ctx-taking form; it alone is acceptable.
func CoveredCtx(ctx context.Context) error { return workCtx(ctx) }

// Not flagged: explicitly opted out.
//
//cyclecover:ctxfree startup-only helper, completes in microseconds
func Bootstrap() error {
	return workCtx(context.Background())
}
