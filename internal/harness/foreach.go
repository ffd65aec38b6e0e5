package harness

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

var (
	cForEachItems  = obs.C("harness.foreach.items")
	cForEachInline = obs.C("harness.foreach.inline")
	cForEachErrors = obs.C("harness.foreach.errors")
)

// ForEach runs fn(i) for every i in [0, n) across a bounded pool of
// at most parallel goroutines, the lightweight sibling of Run for
// homogeneous fan-out (independent DRC rules, density windows,
// critical-area pairs) where the per-task Result/timeout machinery
// would be overhead. Workers pull indices from a shared
// atomic counter, so callers get deterministic output by writing
// results[i] — completion order never leaks into the aggregate.
//
// fn must not panic; cancellation is observed between items and the
// context error is returned once all in-flight items finish. With
// parallel <= 1 (or n <= 1) the loop runs inline on the caller.
func ForEach(ctx context.Context, parallel, n int, fn func(i int)) error {
	return ForEachErr(ctx, parallel, n, func(i int) error { fn(i); return nil })
}

// ForEachErr is ForEach for item functions that can fail. The first
// error stops dispatch of further indices (in-flight items finish),
// and among the items that did report errors the one with the lowest
// index wins, so concurrent runs return a deterministic error for a
// deterministic workload: a worker looks for a failure before it takes
// an index, never after, so an index once taken is run, and every index
// below a failed one was taken before it. Returns the context error if
// no item failed but the context was canceled.
func ForEachErr(ctx context.Context, parallel, n int, fn func(i int) error) error {
	return ForEachWorker(ctx, parallel, n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEachErr that also hands fn the number of the
// worker running item i, in [0, parallel): one worker runs its items one
// after another, so fn may keep per-worker scratch in a slice indexed by
// it and reuse it from item to item without a lock. The inline loop is
// worker 0.
func ForEachWorker(ctx context.Context, parallel, n int, fn func(w, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	cForEachItems.Add(int64(n))
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 || n <= 1 {
		cForEachInline.Add(int64(n))
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				cForEachErrors.Inc()
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		failed atomic.Bool

		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		cForEachErrors.Inc()
		return firstErr
	}
	return ctx.Err()
}
