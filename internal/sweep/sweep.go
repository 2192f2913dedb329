// Package sweep runs independent benchmark/evaluation jobs across a
// bounded worker pool. Simulations are deterministic and independent, so
// the only concurrency concern is result ordering — outputs are returned
// in input order regardless of completion order.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// DefaultWorkers is the pool size used when workers <= 0.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}

// Map applies fn to every item on a pool of workers and returns results in
// input order. The first error aborts scheduling of new work (in-flight
// jobs finish) and is returned joined with any other errors.
func Map[T, R any](items []T, workers int, fn func(T) (R, error)) ([]R, error) {
	return MapCtx(context.Background(), items, workers, fn)
}

// MapCtx is Map with cooperative cancellation: once ctx is done no new
// item is scheduled (in-flight jobs finish — fn observes ctx itself if it
// wants to stop earlier) and the context error is reported alongside any
// job errors. Campaign drivers rely on this to stop scheduling
// evaluations on SIGINT.
func MapCtx[T, R any](ctx context.Context, items []T, workers int, fn func(T) (R, error)) ([]R, error) {
	if fn == nil {
		return nil, errors.New("sweep: nil function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, nil
	}

	type job struct{ idx int }
	jobs := make(chan job)
	var (
		mu     sync.Mutex
		errs   []error
		failed bool
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r, err := safeCall(fn, items[j.idx])
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("item %d: %w", j.idx, err))
					failed = true
				} else {
					results[j.idx] = r
				}
				mu.Unlock()
			}
		}()
	}
	var ctxErr error
scheduling:
	for i := range items {
		mu.Lock()
		stop := failed
		mu.Unlock()
		if stop {
			break
		}
		// When the context is done and a worker is free, select picks
		// either case at random: check first, so that no job starts
		// after a cancellation seen here.
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		select {
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break scheduling
		case jobs <- job{idx: i}:
		}
	}
	close(jobs)
	wg.Wait()
	if ctxErr != nil {
		errs = append([]error{ctxErr}, errs...)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return results, nil
}

// safeCall converts panics in worker functions into errors so one bad item
// cannot take down the whole sweep.
func safeCall[T, R any](fn func(T) (R, error), item T) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sweep: panic: %v", p)
		}
	}()
	return fn(item)
}
