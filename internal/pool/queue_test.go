package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// run submits fn and, once it is admitted, waits for it to finish: the
// synchronous pattern request handlers use, so a caller occupies exactly
// one queue slot for the duration of its job.
func run(q *Queue, ctx context.Context, tenant string, mode Mode, fn func(context.Context)) error {
	done, err := q.Submit(ctx, tenant, mode, fn)
	if err != nil {
		return err
	}
	<-done
	return nil
}

func TestQueueRunsSubmittedJobs(t *testing.T) {
	// Backlog covers the full burst: all 32 callers may enqueue before any
	// worker picks a job up, and FailFast rejects rather than blocking.
	q := NewQueue(4, 32, 0)
	defer q.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(q, context.Background(), "", FailFast, func(context.Context) { ran.Add(1) }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != 32 {
		t.Fatalf("ran %d jobs, want 32", got)
	}
}

func TestQueueDoWaitsForCompletion(t *testing.T) {
	q := NewQueue(1, 4, 0)
	defer q.Close()
	done := false
	if err := run(q, context.Background(), "", FailFast, func(context.Context) {
		time.Sleep(10 * time.Millisecond)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	// No race: the done channel must not close before the closure finished.
	if !done {
		t.Fatal("done closed before the job completed")
	}
}

func TestQueueBackpressure(t *testing.T) {
	q := NewQueue(1, 1, 0)
	defer q.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy
	if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) {}); err != nil {
		t.Fatalf("backlog slot should accept: %v", err)
	}
	if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) {}); err != ErrQueueFull {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if d := q.Depth(); d != 1 {
		t.Fatalf("Depth = %d, want 1", d)
	}
	if r := q.Running(); r != 1 {
		t.Fatalf("Running = %d, want 1", r)
	}
	close(release)
}

func TestQueuePerJobCancellation(t *testing.T) {
	q := NewQueue(2, 4, 0)
	defer q.Close()
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()

	saw1 := make(chan error, 1)
	saw2 := make(chan error, 1)
	started := make(chan struct{}, 2)
	blockUntilDone := func(out chan error) func(context.Context) {
		return func(ctx context.Context) {
			started <- struct{}{}
			select {
			case <-ctx.Done():
				out <- ctx.Err()
			case <-time.After(2 * time.Second):
				out <- nil
			}
		}
	}
	if _, err := q.Submit(ctx1, "", FailFast, blockUntilDone(saw1)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(ctx2, "", FailFast, blockUntilDone(saw2)); err != nil {
		t.Fatal(err)
	}
	<-started
	<-started
	cancel1()
	if err := <-saw1; err != context.Canceled {
		t.Fatalf("job 1 saw %v, want context.Canceled", err)
	}
	select {
	case err := <-saw2:
		t.Fatalf("job 2 finished with %v; cancelling job 1 must not touch it", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel2() // release job 2 so Close does not wait out its timeout
	<-saw2
}

// TestQueueDoWaitBlocksInsteadOfFailing: where FailFast rejects on a full
// backlog, Block applies backpressure — it parks until a slot frees and
// then runs, which is what lets a sweep push a whole grid through a small
// queue without per-cell rejections.
func TestQueueDoWaitBlocksInsteadOfFailing(t *testing.T) {
	q := NewQueue(1, 1, 0)
	defer q.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; fill the lone backlog slot to saturate
	if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
	if err := run(q, context.Background(), "", FailFast, func(context.Context) {}); err != ErrQueueFull {
		t.Fatalf("FailFast = %v, want ErrQueueFull", err)
	}

	var ran atomic.Int64
	done := make(chan error, 1)
	go func() { done <- run(q, context.Background(), "", Block, func(context.Context) { ran.Add(1) }) }()
	select {
	case err := <-done:
		t.Fatalf("Block returned %v while the queue was saturated", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(release) // worker frees up, the parked Block submit proceeds
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("ran %d jobs, want 1", got)
	}
}

// TestQueueDoWaitHonoursContext: a caller that gives up while parked on a
// saturated queue unblocks with its context's error and its job never runs.
func TestQueueDoWaitHonoursContext(t *testing.T) {
	q := NewQueue(1, 1, 0)
	defer q.Close()
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; fill the lone backlog slot to saturate
	if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) {}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan error, 1)
	go func() { done <- run(q, ctx, "", Block, func(context.Context) { ran.Add(1) }) }()
	time.Sleep(10 * time.Millisecond) // let it park on the full backlog
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Block = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("cancelled Block submit still ran its job %d times", got)
	}
}

func TestQueueDoWaitAfterCloseRejects(t *testing.T) {
	q := NewQueue(1, 1, 0)
	q.Close()
	if err := run(q, context.Background(), "", Block, func(context.Context) {}); err != ErrQueueClosed {
		t.Fatalf("got %v, want ErrQueueClosed", err)
	}
}

func TestQueueCloseDrainsAndRejects(t *testing.T) {
	q := NewQueue(2, 8, 0)
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if got := ran.Load(); got != 8 {
		t.Fatalf("Close drained %d jobs, want 8", got)
	}
	if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) {}); err != ErrQueueClosed {
		t.Fatalf("got %v, want ErrQueueClosed", err)
	}
	if err := run(q, context.Background(), "", FailFast, func(context.Context) {}); err != ErrQueueClosed {
		t.Fatalf("got %v, want ErrQueueClosed", err)
	}
	q.Close() // idempotent
}

// TestDoWaitDistinguishesShutdownFromCancel pins the error contract serving
// layers rely on: queue shutdown surfaces as ErrQueueClosed (503), a
// caller's own dead context as context.Canceled, and a saturated backlog as
// ErrQueueFull (429) — never conflated.
func TestDoWaitDistinguishesShutdownFromCancel(t *testing.T) {
	q := NewQueue(1, 0, 0)
	q.Close()
	err := run(q, context.Background(), "", Block, func(context.Context) {})
	if !errors.Is(err, ErrQueueClosed) {
		t.Errorf("Block on closed queue = %v, want ErrQueueClosed", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Error("shutdown error reads as caller cancellation")
	}
	if err := run(q, context.Background(), "", FailFast, func(context.Context) {}); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("FailFast on closed queue = %v, want ErrQueueClosed", err)
	}
	if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) {}); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("async FailFast on closed queue = %v, want ErrQueueClosed", err)
	}

	// A live queue whose one worker is pinned and whose backlog is full:
	// Block parks, and cancelling the waiting caller's context must
	// surface as that context's error, not as a queue condition.
	q2 := NewQueue(1, 0, 0)
	defer q2.Close()
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Block mode: the job is guaranteed to reach the worker even with
		// a zero backlog (FailFast could lose the race against the worker
		// parking).
		run(q2, context.Background(), "", Block, func(context.Context) { <-release })
	}()
	// Wait for the worker to be pinned so the next Block submit genuinely parks.
	for q2.Running() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err = run(q2, ctx, "", Block, func(context.Context) {})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Block with cancelled ctx = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrQueueClosed) || errors.Is(err, ErrQueueFull) {
		t.Error("caller cancellation reads as a queue condition")
	}
	close(release)
	wg.Wait()
}

// pinWorkers occupies every worker with a job that blocks until release is
// closed, so subsequent admissions exercise pure backlog behavior.
func pinWorkers(t *testing.T, q *Queue, n int) (release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		if _, err := q.Submit(context.Background(), "", FailFast, func(context.Context) {
			started <- struct{}{}
			<-release
		}); err != nil {
			t.Fatalf("pin worker %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		<-started
	}
	return release
}

// TestQueueTenantQuota: a tenant at its quota gets ErrQueueFull even though
// the shared backlog has room, and other tenants keep being admitted.
func TestQueueTenantQuota(t *testing.T) {
	q := NewQueue(1, 8, 2)
	defer q.Close()
	release := pinWorkers(t, q, 1)
	defer close(release)

	for i := 0; i < 2; i++ {
		if _, err := q.Submit(context.Background(), "alice", FailFast, func(context.Context) {}); err != nil {
			t.Fatalf("alice submit %d: %v", i, err)
		}
	}
	if _, err := q.Submit(context.Background(), "alice", FailFast, func(context.Context) {}); err != ErrQueueFull {
		t.Fatalf("alice beyond quota = %v, want ErrQueueFull", err)
	}
	// The backlog still has 6 free slots; another tenant is unaffected.
	if _, err := q.Submit(context.Background(), "bob", FailFast, func(context.Context) {}); err != nil {
		t.Fatalf("bob submit: %v", err)
	}
	if d := q.Depth(); d != 3 {
		t.Fatalf("Depth = %d, want 3", d)
	}
	if got := q.Depths(); got["alice"] != 2 || got["bob"] != 1 {
		t.Fatalf("Depths = %v, want alice:2 bob:1", got)
	}
}

// TestQueueTenantFairDispatch: queued work drains round-robin across
// tenants, so a tenant that filled the backlog first does not starve one
// that arrived later.
func TestQueueTenantFairDispatch(t *testing.T) {
	q := NewQueue(1, 8, 0)
	release := pinWorkers(t, q, 1)

	var mu sync.Mutex
	var order []string
	enqueue := func(tenant string) {
		if _, err := q.Submit(context.Background(), tenant, FailFast, func(context.Context) {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
		}); err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
	}
	// Alice floods first, then bob and carol each add one.
	enqueue("alice")
	enqueue("alice")
	enqueue("alice")
	enqueue("bob")
	enqueue("carol")

	close(release)
	q.Close() // drains in dispatch order on the single worker

	want := []string{"alice", "bob", "carol", "alice", "alice"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("ran %d jobs, want %d (%v)", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

// TestQueueTenantQuotaDefaultsOff: a zero quota applies no per-tenant
// bound, so one tenant may use the whole backlog.
func TestQueueTenantQuotaDefaultsOff(t *testing.T) {
	q := NewQueue(1, 4, 0)
	defer q.Close()
	release := pinWorkers(t, q, 1)
	defer close(release)
	for i := 0; i < 4; i++ {
		if _, err := q.Submit(context.Background(), "alice", FailFast, func(context.Context) {}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := q.Submit(context.Background(), "alice", FailFast, func(context.Context) {}); err != ErrQueueFull {
		t.Fatalf("beyond backlog = %v, want ErrQueueFull", err)
	}
}

// TestQueueDoWaitAsHonoursQuota: a parked Block submit proceeds once its
// tenant drops back under quota, not merely when any backlog slot frees.
func TestQueueDoWaitAsHonoursQuota(t *testing.T) {
	q := NewQueue(1, 8, 1)
	defer q.Close()
	release := pinWorkers(t, q, 1)

	ran := make(chan string, 8)
	if _, err := q.Submit(context.Background(), "alice", FailFast, func(context.Context) { ran <- "alice-1" }); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run(q, context.Background(), "alice", Block, func(context.Context) { ran <- "alice-2" })
	}()
	select {
	case err := <-done:
		t.Fatalf("Block returned %v while alice was at quota", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(release) // alice-1 dispatches; alice drops under quota
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if first := <-ran; first != "alice-1" {
		t.Fatalf("first dispatched job = %s, want alice-1", first)
	}
	if second := <-ran; second != "alice-2" {
		t.Fatalf("second dispatched job = %s, want alice-2", second)
	}
}
