package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// budgeted returns a background context carrying a budget of n.
func budgeted(n int) context.Context {
	return WithBudget(context.Background(), NewBudget(n))
}

func TestNewBudget(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-3, 0}, {1, 0}, {4, 3}, {16, 15},
	}
	for _, c := range cases {
		b := NewBudget(c.n)
		if got := b.take(100); got != c.want {
			t.Errorf("NewBudget(%d) holds %d helper tokens, want %d", c.n, got, c.want)
		}
		if got := b.take(1); got != 0 {
			t.Errorf("NewBudget(%d) handed out %d tokens past empty", c.n, got)
		}
	}
	if got := (*Budget)(nil).take(4); got != 0 {
		t.Errorf("a nil budget handed out %d tokens", got)
	}
}

func TestMapVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 32} {
		var mu sync.Mutex
		seen := map[int]int{}
		err := Map(budgeted(workers), 100, func(ctx context.Context, i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 100 {
			t.Fatalf("workers=%d visited %d indices", workers, len(seen))
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, n)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	var active, peak int64
	err := Map(budgeted(3), 50, func(ctx context.Context, i int) error {
		cur := atomic.AddInt64(&active, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&active, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Fatalf("peak concurrency %d exceeded 3 workers", peak)
	}
}

// peakCounter records the most calls ever in flight at once.
type peakCounter struct{ active, peak atomic.Int64 }

func (c *peakCounter) enter() {
	cur := c.active.Add(1)
	for p := c.peak.Load(); cur > p && !c.peak.CompareAndSwap(p, cur); p = c.peak.Load() {
	}
}

func (c *peakCounter) leave() { c.active.Add(-1) }

// TestNestedMapsShareOneBudget: a Map inside a Map draws on the same
// budget, so the two levels together never exceed it, nothing blocks on a
// token, and every token is back once the outer Map returns.
func TestNestedMapsShareOneBudget(t *testing.T) {
	b := NewBudget(3)
	var c peakCounter
	var leaves atomic.Int64
	err := Map(WithBudget(context.Background(), b), 4, func(ctx context.Context, i int) error {
		return Map(ctx, 8, func(ctx context.Context, j int) error {
			c.enter()
			defer c.leave()
			leaves.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves.Load() != 32 {
		t.Fatalf("ran %d leaves, want 32", leaves.Load())
	}
	if p := c.peak.Load(); p > 3 {
		t.Fatalf("nested fan-outs peaked at %d concurrent calls under a budget of 3", p)
	}
	if got := b.take(100); got != 2 {
		t.Fatalf("%d of 2 tokens came back", got)
	}
}

// TestWithBudgetReplaces: a budget set deeper in the tree overrides the
// one its parent carried; a nil one makes that subtree serial.
func TestWithBudgetReplaces(t *testing.T) {
	var c peakCounter
	err := Map(WithBudget(budgeted(8), nil), 16, func(ctx context.Context, i int) error {
		c.enter()
		defer c.leave()
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := c.peak.Load(); p != 1 {
		t.Fatalf("a nil budget ran %d items at once, want serial", p)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	boom7 := errors.New("boom 7")
	boom30 := errors.New("boom 30")
	err := Map(budgeted(8), 64, func(ctx context.Context, i int) error {
		switch i {
		case 7:
			return boom7
		case 30:
			time.Sleep(5 * time.Millisecond)
			return boom30
		}
		return nil
	})
	if !errors.Is(err, boom7) {
		t.Fatalf("err = %v, want the lowest-index failure", err)
	}
}

func TestMapErrorCancelsRemainingWork(t *testing.T) {
	var ran int64
	err := Map(budgeted(2), 1000, func(ctx context.Context, i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if atomic.LoadInt64(&ran) == 1000 {
		t.Fatal("failure did not cancel remaining work")
	}
}

// TestMapRepanicsOnCaller: a panic in fn cancels the fan-out and reaches
// the caller with its value, after every helper has returned its token.
func TestMapRepanicsOnCaller(t *testing.T) {
	b := NewBudget(4)
	var running atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		Map(WithBudget(context.Background(), b), 4, func(ctx context.Context, i int) error {
			running.Add(1)
			defer running.Add(-1)
			if i == 0 {
				<-ctx.Done() // only the panic's cancel ends this item
				return ctx.Err()
			}
			panic("boom")
		})
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the panic value %q", got, "boom")
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d items still running after Map panicked", n)
	}
	if n := b.take(100); n != 3 {
		t.Fatalf("budget holds %d helper tokens after the panic, want 3", n)
	}
}

func TestMapHonoursParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(budgeted(2))
	var ran int64
	done := make(chan error, 1)
	go func() {
		done <- Map(ctx, 100000, func(ctx context.Context, i int) error {
			atomic.AddInt64(&ran, 1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
			return nil
		})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return promptly after cancellation")
	}
}

func TestValuesPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 7} {
		out, err := Values(budgeted(workers), 64, func(ctx context.Context, i int) (int, error) {
			time.Sleep(time.Duration(64-i) % 5 * time.Millisecond) // finish out of order
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	if err := Map(budgeted(4), 0, func(ctx context.Context, i int) error {
		t.Fatal("fn called for empty input")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
