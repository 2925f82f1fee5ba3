// Package pool is the bounded worker pool behind STELLAR's concurrent
// execution layer. Every fan-out in the stack — evaluation repetitions,
// independent figure arms, workload sweeps — goes through pool.Map or
// pool.Values so parallelism is bounded, cancellable, and deterministic:
// each item writes only to its own index slot, so results are assembled in
// input order and a parallel run is bit-identical to a serial one.
//
// Queue is the long-lived counterpart for work that arrives over time: a
// bounded, tenant-fair executor with one admission call, Submit, that
// either fails fast on saturation or blocks the producer until a slot
// frees.
package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Workers normalises a parallelism knob: values below 1 mean "one worker"
// (serial), and the result is capped at n so no idle goroutines spawn.
func Workers(parallel, n int) int {
	if parallel < 1 {
		parallel = 1
	}
	if parallel > n {
		parallel = n
	}
	return parallel
}

// Default is a sensible worker count for CPU-bound fan-outs.
func Default() int { return runtime.GOMAXPROCS(0) }

// Map runs fn(ctx, i) for every i in [0, n) using at most workers
// concurrent goroutines. The first error (lowest index) cancels the
// remaining work and is returned; ctx cancellation stops the pool and
// returns ctx.Err(). With workers <= 1 the loop is strictly serial, which
// is the reference path parallel runs must match bit for bit.
func Map(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if gctx.Err() != nil {
					errs[i] = gctx.Err()
					continue
				}
				if err := fn(gctx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	// Lowest-index real error wins so failures are deterministic regardless
	// of goroutine scheduling; cancellation fallout from the group cancel
	// must not mask the error that triggered it.
	var fallout error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallout == nil {
			fallout = err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return fallout
}

// Values runs fn for every index and collects the results in input order.
// Identical ordering guarantees as Map: out[i] is fn's result for item i,
// never reordered by scheduling.
func Values[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
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
