// Package exec is the parallel experiment engine: a deterministic
// bounded worker pool for the embarrassingly parallel sweeps that
// dominate the evaluation (Fig. 12's defense x nRH x configuration x
// mix grid and Fig. 13's adversarial runs are hundreds of fully
// independent cycle-level simulations).
//
// Determinism is the contract: Map dispatches job indices in order,
// writes each result into its own slot, and aggregates errors in index
// order, so a sweep run with Workers=N produces results bit-identical
// to Workers=1. Jobs must take their randomness from their own
// coordinates, never from shared mutable state — the Fig. 12/13 sweeps
// seed every simulation from its cell's configuration.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a configured worker count: values <= 0 select
// GOMAXPROCS, everything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(i) for every i in [0, n) on a pool of at most `workers`
// goroutines (<= 0: GOMAXPROCS) and returns the n results in index
// order. Indices are dispatched in ascending order, so job i never
// starts after job j > i.
//
// If any job fails, jobs not yet started are skipped, and Map returns a
// nil slice with every observed error joined in job-index order (each
// wrapped with its index). Jobs already running are allowed to finish.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map with cancellation: once ctx is done, no new job starts
// (jobs already running finish — the pool returns within one job's
// latency), and the joined error ends with the context's cause after
// any job errors. Cancellation does not change what completed jobs
// computed, so a sweep that persists per-job results (the campaign
// engine) can be cancelled and later resumed with bit-identical cells.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	results := make([]T, n)
	errs := make([]error, n)

	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				r, err := fn(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()

	canceled := ctx.Err() != nil
	if failed.Load() || canceled {
		var agg []error
		for i, err := range errs {
			if err != nil {
				agg = append(agg, fmt.Errorf("job %d: %w", i, err))
			}
		}
		if canceled {
			agg = append(agg, context.Cause(ctx))
		}
		return nil, errors.Join(agg...)
	}
	return results, nil
}

// Progress wraps a progress callback so concurrent jobs can report
// safely: calls are serialized under a mutex. A nil callback yields a
// no-op, so callers never need to nil-check.
func Progress(fn func(string)) func(string) {
	if fn == nil {
		return func(string) {}
	}
	var mu sync.Mutex
	return func(msg string) {
		mu.Lock()
		defer mu.Unlock()
		fn(msg)
	}
}
