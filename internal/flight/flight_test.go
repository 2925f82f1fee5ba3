package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the test's patience runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// inFlight is the number of keys with a run in progress.
func (g *Group[V]) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// TestConcurrentCallersRunOnce: N callers for one key run fn once and all
// share its result; the N-1 waiters are counted as each starts waiting,
// before the owner finishes.
func TestConcurrentCallersRunOnce(t *testing.T) {
	const n = 16
	var g Group[int]
	var runs atomic.Int32
	release := make(chan struct{})
	fn := func() (int, error) {
		runs.Add(1)
		<-release
		return 42, nil
	}

	var wg sync.WaitGroup
	results := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.Do(context.Background(), "k", fn)
		}(i)
	}
	// Every waiter is counted while the owner is still blocked in fn.
	waitFor(t, "n-1 joined waiters", func() bool { return g.Joined() == n-1 })
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i := range results {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("caller %d: got (%d, %v), want (42, nil)", i, results[i], errs[i])
		}
	}
	if got := g.Joined(); got != n-1 {
		t.Fatalf("Joined() = %d after all returned, want %d", got, n-1)
	}
	if got := g.inFlight(); got != 0 {
		t.Fatalf("%d keys left in flight after every call returned", got)
	}
}

// TestOwnerCancellationMakesLiveWaiterRerun: when the owner's own context
// ends its run, a waiter whose context is still live does not inherit that
// cancellation; it runs fn itself and gets a real result.
func TestOwnerCancellationMakesLiveWaiterRerun(t *testing.T) {
	var g Group[int]
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerIn := make(chan struct{})
	var runs atomic.Int32

	ownerErr := make(chan error, 1)
	go func() {
		_, err := g.Do(ownerCtx, "k", func() (int, error) {
			runs.Add(1)
			close(ownerIn)
			<-ownerCtx.Done()
			return 0, fmt.Errorf("run aborted: %w", ownerCtx.Err())
		})
		ownerErr <- err
	}()
	<-ownerIn

	waiterDone := make(chan struct{})
	var got int
	var gotErr error
	go func() {
		defer close(waiterDone)
		got, gotErr = g.Do(context.Background(), "k", func() (int, error) {
			runs.Add(1)
			return 7, nil
		})
	}()
	waitFor(t, "waiter to join", func() bool { return g.Joined() == 1 })
	cancelOwner()

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner: err = %v, want context.Canceled", err)
	}
	select {
	case <-waiterDone:
	case <-time.After(5 * time.Second):
		t.Fatal("live waiter never finished after the owner was cancelled")
	}
	if gotErr != nil || got != 7 {
		t.Fatalf("live waiter got (%d, %v), want (7, nil) from its own rerun", got, gotErr)
	}
	if runs.Load() != 2 {
		t.Fatalf("fn ran %d times, want 2 (owner, then the waiter's rerun)", runs.Load())
	}
	if g.inFlight() != 0 {
		t.Fatalf("%d keys left in flight", g.inFlight())
	}
}

// TestWaiterCancellationReturnsPromptly: a waiter whose own context ends
// returns ctx.Err() without waiting for the owner, and the owner finishes
// its run undisturbed.
func TestWaiterCancellationReturnsPromptly(t *testing.T) {
	var g Group[int]
	ownerIn := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan struct{})
	var ownerVal int
	var ownerErr error
	go func() {
		defer close(ownerDone)
		ownerVal, ownerErr = g.Do(context.Background(), "k", func() (int, error) {
			close(ownerIn)
			<-release
			return 9, nil
		})
	}()
	<-ownerIn

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx, "k", func() (int, error) {
			t.Error("waiter ran fn while the owner was in flight")
			return 0, nil
		})
		waiterErr <- err
	}()
	waitFor(t, "waiter to join", func() bool { return g.Joined() == 1 })
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return promptly")
	}

	close(release)
	<-ownerDone
	if ownerErr != nil || ownerVal != 9 {
		t.Fatalf("owner got (%d, %v), want (9, nil)", ownerVal, ownerErr)
	}
	if g.inFlight() != 0 {
		t.Fatalf("%d keys left in flight", g.inFlight())
	}
}

// TestOwnerErrorIsSharedNotRetried: an ordinary (non-context) error is the
// run's answer: waiters get it too, and nothing is retried or retained.
func TestOwnerErrorIsSharedNotRetried(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	ownerIn := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int32
	fn := func() (int, error) {
		if runs.Add(1) == 1 {
			close(ownerIn)
		}
		<-release
		return 0, boom
	}
	errs := make(chan error, 2)
	go func() { _, err := g.Do(context.Background(), "k", fn); errs <- err }()
	<-ownerIn
	go func() { _, err := g.Do(context.Background(), "k", fn); errs <- err }()
	waitFor(t, "waiter to join", func() bool { return g.Joined() == 1 })
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	// Errors are not retained: the next call runs again.
	if _, err := g.Do(context.Background(), "k", fn); !errors.Is(err, boom) || runs.Load() != 2 {
		t.Fatalf("after completion: err=%v runs=%d, want boom and a fresh run", err, runs.Load())
	}
}

// TestPanickingOwnerReleasesTheKey: a panic in fn reaches the owner, waiters
// get errPanicked, and the key leaves the table so the next call runs.
func TestPanickingOwnerReleasesTheKey(t *testing.T) {
	var g Group[int]
	ownerIn := make(chan struct{})
	release := make(chan struct{})

	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		g.Do(context.Background(), "k", func() (int, error) {
			close(ownerIn)
			<-release
			panic("backend exploded")
		})
	}()
	<-ownerIn

	waiterErr := make(chan error, 1)
	go func() {
		_, err := g.Do(context.Background(), "k", func() (int, error) { return 0, nil })
		waiterErr <- err
	}()
	waitFor(t, "waiter to join", func() bool { return g.Joined() == 1 })
	close(release)

	if r := <-recovered; r != "backend exploded" {
		t.Fatalf("owner recovered %v, want the original panic", r)
	}
	select {
	case err := <-waiterErr:
		if !errors.Is(err, errPanicked) {
			t.Fatalf("waiter: err = %v, want errPanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded by a panicking owner")
	}
	if g.inFlight() != 0 {
		t.Fatalf("%d keys left in flight after a panic", g.inFlight())
	}
	v, err := g.Do(context.Background(), "k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("call after the panic got (%d, %v), want a fresh run's (5, nil)", v, err)
	}
}
