package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// parallelMap evaluates f over ns with a bounded worker pool, preserving
// input order in the result. The experiment sweeps are embarrassingly
// parallel (one ring size per row), and the constructors are safe for
// concurrent use (pure functions behind the single-flighted sweep cache
// in bench.go), so the big tables scale with cores. workers ≤ 0 selects
// GOMAXPROCS. A fired ctx skips every row not yet started and fails the
// sweep with the context's error — the interrupt contract cmd/experiments
// relies on for clean SIGINT aborts.
func parallelMap[T any](ctx context.Context, ns []int, workers int, f func(n int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ns) {
		workers = len(ns)
	}
	if workers <= 1 {
		out := make([]T, len(ns))
		for i, n := range ns {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("bench: sweep interrupted before n=%d: %w", n, err)
			}
			v, err := f(n)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

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

// ParallelTableT1Ctx is TableT1 with the rows computed concurrently: a
// fired ctx skips unstarted rows and fails the sweep with ctx's error.
func ParallelTableT1Ctx(ctx context.Context, ns []int, workers int) ([]T1Row, error) {
	return parallelMap(ctx, ns, workers, func(n int) (T1Row, error) {
		rows, err := TableT1(ctx, []int{n})
		if err != nil {
			return T1Row{}, err
		}
		return rows[0], nil
	})
}

// ParallelTableT2Ctx is TableT2 with the rows computed concurrently.
func ParallelTableT2Ctx(ctx context.Context, ns []int, workers int) ([]T2Row, error) {
	return parallelMap(ctx, ns, workers, func(n int) (T2Row, error) {
		rows, err := TableT2(ctx, []int{n})
		if err != nil {
			return T2Row{}, err
		}
		return rows[0], nil
	})
}

// ParallelTableF2Ctx is TableF2 with the rows computed concurrently (the
// failure sweeps dominate large-n experiment time).
func ParallelTableF2Ctx(ctx context.Context, ns []int, doubleLimit, workers int) ([]F2Row, error) {
	return parallelMap(ctx, ns, workers, func(n int) (F2Row, error) {
		rows, err := TableF2(ctx, []int{n}, doubleLimit)
		if err != nil {
			return F2Row{}, err
		}
		return rows[0], nil
	})
}
