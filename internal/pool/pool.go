// Package pool is the bounded fan-out behind STELLAR's concurrent
// execution layer. Every fan-out in the stack — evaluation repetitions,
// search candidates, figure arms, sweeps — goes through pool.Map or
// pool.Values under one Budget per call tree, which its root puts on the
// context, so nested fan-outs share one bound. Fan-outs are cancellable and
// deterministic: each item writes only to its own index slot, so results
// are assembled in input order and a parallel run is bit-identical to a
// serial one.
//
// Queue is the long-lived counterpart for work that arrives over time: a
// bounded, tenant-fair executor with one admission call, Submit, that
// either fails fast on saturation or blocks the producer until a slot
// frees.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Default is a sensible worker count for CPU-bound fan-outs.
func Default() int { return runtime.GOMAXPROCS(0) }

// Budget holds the helper tokens a call tree's fan-outs share.
type Budget struct{ free atomic.Int64 }

// NewBudget bounds a call tree to n goroutines: the root's own plus n-1
// helper tokens. n <= 1, like a nil Budget, means serial.
func NewBudget(n int) *Budget {
	b := &Budget{}
	b.free.Store(int64(max(n-1, 0)))
	return b
}

// take claims up to want free tokens without waiting.
func (b *Budget) take(want int) int {
	for b != nil {
		free := b.free.Load()
		got := min(free, int64(want))
		if got == 0 || b.free.CompareAndSwap(free, free-got) {
			return int(got)
		}
	}
	return 0
}

type budgetKey struct{}

// WithBudget returns ctx carrying b, replacing any budget ctx already
// carries. Every Map and Values under the returned context shares b.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// Map runs fn(ctx, i) for every i in [0, n) on the calling goroutine plus
// as many helpers as the ctx's budget has tokens free right now; it never
// waits for one, and each helper returns its token when items run out.
// The first error (lowest index) cancels the remaining work and is
// returned; ctx cancellation stops the fan-out and returns ctx.Err(). A
// panic in fn, on whichever goroutine it runs, cancels the fan-out too;
// once every helper has returned, the lowest-index panic is re-raised with
// its value on the caller, so a recover above Map sees it and no helper
// outlives it. With no helpers the loop is strictly serial, which is the
// reference path parallel runs must match bit for bit.
func Map(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	helpers := b.take(n - 1)
	if helpers == 0 {
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
	var next atomic.Int64
	work := func() {
		i := n
		defer func() {
			if r := recover(); r != nil {
				errs[i] = panicked{r}
				cancel()
			}
		}()
		for i = int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if errs[i] = gctx.Err(); errs[i] == nil {
				if errs[i] = fn(gctx, i); errs[i] != nil {
					cancel()
				}
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			defer b.free.Add(1)
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if p, ok := err.(panicked); ok {
			panic(p.value)
		}
	}
	// Lowest-index real error wins so failures are deterministic regardless
	// of goroutine scheduling; cancellation fallout from the group cancel
	// must not mask the error that triggered it.
	var fallout error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
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

// panicked holds the value an item's fn panicked with, for Map to re-raise
// on its caller.
type panicked struct{ value any }

func (p panicked) Error() string { return fmt.Sprint("pool: item panicked: ", p.value) }

// Values runs fn for every index and collects the results in input order.
// Identical ordering guarantees as Map: out[i] is fn's result for item i,
// never reordered by scheduling.
func Values[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Map(ctx, n, func(ctx context.Context, i int) (err error) {
		out[i], err = fn(ctx, i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
