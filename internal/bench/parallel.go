package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// parallelMap evaluates f over ns on GOMAXPROCS workers, preserving
// input order in the result. The experiment sweeps are embarrassingly
// parallel (one ring size per row), and the constructors are safe for
// concurrent use (pure functions behind the single-flighted sweep cache
// in bench.go), so the big tables scale with cores. A fired ctx skips
// every row not yet started and fails the sweep with the context's error
// — the interrupt contract cmd/experiments relies on for clean SIGINT
// aborts.
func parallelMap[T any](ctx context.Context, ns []int, f func(n int) (T, error)) ([]T, error) {
	workers := min(runtime.GOMAXPROCS(0), len(ns))
	out := make([]T, len(ns))
	errs := make([]error, len(ns))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = f(ns[i])
			}
		}()
	}
	for i := range ns {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bench: n=%d: %w", ns[i], err)
		}
	}
	return out, nil
}
