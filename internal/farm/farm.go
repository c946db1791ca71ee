// Package farm is the deterministic die-farm execution engine: it fans
// independent per-die work (manufacture → characterise → simulate) across
// a bounded worker pool and gathers results in die-index order, so the
// parallel output is bit-identical to the serial path. Determinism rests
// on two invariants the rest of the repository already upholds:
//
//  1. Per-index seed derivation. Every random stream a task uses is
//     derived from its index (varmodel.Generator.Die(batchSeed, die),
//     the experiments' per-trial seeds, a function of (die, trial) only;
//     DESIGN.md section 6 gives the rule), never from shared mutable RNG
//     state, so results do not depend on which worker runs the task or in
//     what order.
//  2. Index-slotted collection. Workers write into result slots addressed
//     by task index; callers reduce the slots serially in index order, so
//     floating-point accumulation order matches the serial loop exactly.
//
// Characterised dies are memoised across experiments by a diecache.Cache
// (package internal/diecache), which is where the batch-level speedup
// beyond raw parallelism comes from: ~15 experiments share one 200-die
// batch.
package farm

import (
	"context"
	"runtime"
	"sync"

	"vasched/internal/trace"
)

// Workers normalises a worker-count request: n if positive, otherwise
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(ctx, i) for every i in [0, n) on a pool of workers
// goroutines (workers <= 0 means GOMAXPROCS). It returns the error of the
// lowest-indexed failing task, or ctx.Err() if the context was cancelled
// before all tasks ran. On the first failure the remaining tasks are
// abandoned (workers stop picking up new indices); in-flight tasks see a
// cancelled context. With workers == 1 the tasks run in index order on the
// calling goroutine, reproducing the serial path exactly.
func Map(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	ctx, sp := trace.Start(ctx, "farm.map",
		trace.Int("tasks", n), trace.Int("workers", workers))
	defer sp.End()
	// task wraps fn in a per-index span. The span structure (one
	// farm.task per index, children under it) is identical for every
	// workers value; only timestamps differ.
	task := func(ctx context.Context, i int) error {
		ctx, tsp := trace.Start(ctx, "farm.task", trace.Int("index", i))
		defer tsp.End()
		return fn(ctx, i)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := task(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu   sync.Mutex
		next int
		errs = make([]error, n)
		fail bool
	)
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if fail || next >= n {
			return -1
		}
		i := next
		next++
		return i
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := take()
				if i < 0 {
					return
				}
				if err := task(ctx, i); err != nil {
					mu.Lock()
					errs[i] = err
					fail = true
					mu.Unlock()
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	// Report deterministically: the lowest-indexed task error wins, so a
	// multi-failure run surfaces the same error the serial path would.
	for i := 0; i < next; i++ {
		if errs[i] != nil {
			return errs[i]
		}
	}
	return parent.Err()
}

// Collect runs fn for every index in [0, n) through Map and returns the
// results in index order. It is the engine's gather primitive: the
// returned slice is identical to running fn serially for i = 0..n-1.
func Collect[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Map(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
