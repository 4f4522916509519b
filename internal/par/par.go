// Package par is the deterministic parallel execution layer behind the
// experiment harness: it fans independent units of work — simulation
// replications, sweep points, solver cells — across a bounded worker pool
// and returns results in index order, so a run's output is bit-identical
// regardless of the worker count or the schedule the OS happens to pick.
//
// Determinism contract: fn(i) must depend only on i (and on immutable
// captured state). Randomised work derives its stream from the index — see
// Replicate, which hands each replication a well-separated dist.SubSeed —
// never from a shared RNG, a global counter, or the wall clock.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"hap/internal/dist"
)

// Workers normalises a worker-count knob: values <= 0 mean "one worker per
// available CPU" (GOMAXPROCS), and the count is clamped to n so no idle
// goroutines are spawned.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(0..n-1) on up to workers goroutines (<= 0 selects
// GOMAXPROCS, 1 runs inline with no goroutines) and returns the results in
// index order. Work is handed out by an atomic counter, so long and short
// items share the pool without static partitioning imbalance; out[i] only
// ever depends on i.
//
// Once ctx is done no new index is handed out (in-flight items finish; fn
// is responsible for its own early exit if it also watches ctx). Unstarted
// slots keep their zero value, so callers that aggregate must skip zeros —
// determinism still holds for every slot that did run. A nil ctx never
// cancels.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			out[i] = fn(i)
		}
	}
	workers = Workers(workers, n)
	if workers == 1 {
		work()
		return out
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return out
}

// MapErr runs fn(0..n-1) on up to workers goroutines (<= 0 selects
// GOMAXPROCS). All n items run to completion; if any failed, the error of
// the lowest failing index is returned (deterministically, regardless of
// completion order) along with the full result slice.
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	errs := make([]error, n)
	out := Map(nil, n, workers, func(i int) T {
		v, err := fn(i)
		errs[i] = err
		return v
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Replicate runs n independent replications through Map (same worker and
// cancellation semantics). Replication i receives the well-separated seed
// dist.SubSeed(seedBase, i), so its result depends only on (seedBase, i):
// the slice is bit-identical whether the replications run serially or
// across any number of workers.
func Replicate[T any](ctx context.Context, n int, seedBase int64, workers int, fn func(rep int, seed int64) T) []T {
	return Map(ctx, n, workers, func(i int) T {
		return fn(i, dist.SubSeed(seedBase, i))
	})
}

// All runs the given functions concurrently (one worker per function, up to
// GOMAXPROCS) and returns the error of the lowest-index failure, or nil.
// Use it for a handful of heterogeneous tasks — e.g. the independent exact /
// approximate / baseline solves of one comparison — where Map's uniform
// index space does not fit.
func All(fns ...func() error) error {
	_, err := MapErr(len(fns), 0, func(i int) (struct{}, error) {
		return struct{}{}, fns[i]()
	})
	return err
}
