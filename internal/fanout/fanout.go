// Package fanout threads a per-job parallelism hint through contexts, so
// nested parallel stages do not multiply. The problem it solves: the
// server's worker pool runs up to GOMAXPROCS jobs at once, and a failure
// sweep defaults its own worker count to GOMAXPROCS *per job* — a busy
// pool would therefore oversubscribe the machine by a factor of the pool
// size. The pool stamps each job's context with its fair share of the
// cores (Share) before running it; the sweep reads the stamp (Limit) when
// its explicit worker option is unset, and falls back to GOMAXPROCS only
// when no stamp is present (library callers outside any pool keep the
// old default).
//
// The hint never changes *what* is computed — the sweep is deterministic
// across worker counts — only how many goroutines compute it, so
// stamping is always safe.
package fanout

import "context"

// ctxKey is the private context key for the fan-out limit.
type ctxKey struct{}

// With returns a copy of ctx carrying a fan-out limit of n workers for
// parallel stages below it. n < 1 is clamped to 1 (serial): a stamped
// context always carries a usable limit, so callers can pass a computed
// share without guarding it.
func With(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, ctxKey{}, n)
}

// Limit reports the fan-out limit stamped on ctx, or 0 when the context
// carries none. Callers treat 0 as "no hint" and apply their own default
// (typically GOMAXPROCS).
func Limit(ctx context.Context) int {
	n, _ := ctx.Value(ctxKey{}).(int)
	return n
}

// Share is the fair per-job worker share for a pool running `running`
// jobs on `cores` cores: cores/running, never below 1. With one running
// job the whole machine is available; under a saturated pool every job
// runs serially instead of stacking GOMAXPROCS goroutines each.
func Share(cores, running int) int {
	if running < 1 {
		running = 1
	}
	s := cores / running
	if s < 1 {
		s = 1
	}
	return s
}
