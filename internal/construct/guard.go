package construct

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"github.com/cyclecover/cyclecover/internal/faultinject"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// This file is the resilience boundary of the strategy layer: SafeSolve
// wraps every strategy invocation in a panic recover (a bug in one
// solver fails one request, never the process), PanicError carries a
// stable fingerprint so recovered panics can be counted and alerted on
// without unbounded label cardinality, and RegisterStrategy lets tests
// and embedders add strategies to the by-name lookup without touching
// the pinned default registry.

// PanicError reports a panic recovered at a containment boundary. It
// is the error surfaced to the one request whose computation panicked;
// every other request is untouched.
type PanicError struct {
	// Origin names the boundary that recovered the panic, e.g.
	// "strategy:greedy" or "pool".
	Origin string
	// Fingerprint is a short stable hash of (origin, panic message):
	// one crashing code path maps to one fingerprint, so counters keyed
	// on it stay low-cardinality.
	Fingerprint string
	// Value is the recovered panic value, stringified.
	Value string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("construct: panic recovered at %s [%s]: %s", e.Origin, e.Fingerprint, e.Value)
}

// Recovered builds the PanicError for a recover() value caught at the
// named boundary.
func Recovered(origin string, v any) *PanicError {
	msg := fmt.Sprint(v)
	h := fnv.New64a()
	h.Write([]byte(origin))
	h.Write([]byte{0})
	h.Write([]byte(msg))
	return &PanicError{
		Origin:      origin,
		Fingerprint: fmt.Sprintf("%08x", uint32(h.Sum64()>>32)^uint32(h.Sum64())),
		Value:       msg,
	}
}

// SafeSolve runs s.Solve behind the panic containment boundary: a
// panicking strategy yields a *PanicError instead of killing the
// process, so one poisoned request cannot take the daemon down. Every
// strategy invocation on the serving path — portfolio members, named
// strategies, the degraded pipeline — goes through here; it is also a
// chaos failpoint, so fault-injection builds can rehearse strategy
// crashes without planting bugs.
func SafeSolve(ctx context.Context, s Strategy, in instance.Instance, opts Options) (out Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = Outcome{}, Recovered("strategy:"+s.Name(), r)
		}
	}()
	//cyclecover:faultpoint strategy entry: chaos tests inject panics and latency here
	if err := faultinject.Inject(faultinject.SiteStrategySolve); err != nil {
		return Outcome{}, err
	}
	return s.Solve(ctx, in, opts)
}

// extraStrategies holds strategies added by RegisterStrategy, keyed by
// name. They are resolvable through LookupStrategy and listed by
// Strategies, but never join the default registry: the portfolio's
// pinned determinism contract ranks exactly the built-in members.
var (
	extraMu         sync.RWMutex
	extraStrategies map[string]Strategy
)

// RegisterStrategy adds a strategy to the by-name lookup (LookupStrategy,
// Strategies). It rejects names that collide with a built-in strategy,
// "portfolio", or a previous registration. Registered strategies do not
// join the default portfolio — the pinned determinism rule covers the
// built-in registry only — but are selectable per request, which is
// what the chaos suite uses to rehearse panicking and stalling solvers.
func RegisterStrategy(s Strategy) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("construct: cannot register a strategy with an empty name")
	}
	if name == "portfolio" {
		return fmt.Errorf("construct: strategy name %q is reserved", name)
	}
	for _, b := range Registry() {
		if b.Name() == name {
			return fmt.Errorf("construct: strategy %q is built in", name)
		}
	}
	extraMu.Lock()
	defer extraMu.Unlock()
	if _, dup := extraStrategies[name]; dup {
		return fmt.Errorf("construct: strategy %q already registered", name)
	}
	if extraStrategies == nil {
		extraStrategies = make(map[string]Strategy)
	}
	extraStrategies[name] = s
	return nil
}

// lookupExtra resolves a registered (non-built-in) strategy.
func lookupExtra(name string) (Strategy, bool) {
	extraMu.RLock()
	defer extraMu.RUnlock()
	s, ok := extraStrategies[name]
	return s, ok
}

// extraNames lists registered strategy names in sorted order.
func extraNames() []string {
	extraMu.RLock()
	defer extraMu.RUnlock()
	names := make([]string, 0, len(extraStrategies))
	//cyclecover:nondet keys are sorted immediately below before use
	for name := range extraStrategies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
