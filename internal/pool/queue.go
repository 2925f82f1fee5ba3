package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrQueueFull is returned by a FailFast Submit when admission fails:
// either the shared backlog is at capacity or the submitting tenant has
// exhausted its per-tenant quota. Callers at a serving boundary should
// translate it into back-pressure (HTTP 429) rather than blocking request
// handlers on a saturated queue.
var ErrQueueFull = errors.New("pool: queue backlog full")

// ErrQueueClosed is returned by Submit, in either mode, after Close. It is
// deliberately distinct from both ErrQueueFull and context cancellation:
// a closed queue means the service is shutting down (HTTP 503), a full one
// means transient saturation (HTTP 429), and a dead context means this one
// caller gave up. Callers must not collapse the three — retrying a closed
// queue is futile, and reporting a shutdown as the caller's own
// cancellation hides the outage.
var ErrQueueClosed = errors.New("pool: queue closed")

// queueTask pairs a job with the context it runs under and a completion
// signal synchronous callers can wait on.
type queueTask struct {
	ctx  context.Context
	fn   func(context.Context)
	done chan struct{}
}

// Queue is the long-lived counterpart to Map: a bounded executor for jobs
// that arrive over time rather than as one fixed fan-out. At most `workers`
// jobs run concurrently and at most `backlog` wait; beyond that Submit
// either fails fast with ErrQueueFull, so admission control happens at the
// edge instead of by unbounded buffering, or blocks the one producer until
// a slot frees (see Mode). Each job carries its own context, so cancelling
// one caller (a disconnected HTTP client) aborts only that job.
//
// Admission is tenant-aware: Submit tags work with a tenant name, queued
// work is dispatched round-robin across tenants (one noisy tenant cannot
// starve the others even when it filled the backlog first), and an
// optional per-tenant quota caps how much of the backlog any single tenant
// may hold. Callers with no tenant use "", so a single-tenant queue is one
// bucket.
type Queue struct {
	backlog int
	quota   int // per-tenant waiting cap (== backlog when unset: no per-tenant bound)

	mu      sync.Mutex
	cond    *sync.Cond // workers wait here for queued tasks
	slotCh  chan struct{}
	closed  bool
	idle    int // workers parked waiting for a task
	waiting int // queued tasks across all tenants
	tenants map[string][]queueTask
	rr      []string // round-robin tenant dispatch order
	rrIdx   int

	wg      sync.WaitGroup
	running atomic.Int64
}

// NewQueue starts a queue with the given worker count (values below 1 mean
// one worker), backlog capacity (values below 0 mean 0: a job is admitted
// only when a worker is free to pick it up promptly), and per-tenant
// admission quota: at most `quota` jobs from any one tenant may wait at a
// time (values below 1, or above backlog, mean no per-tenant bound beyond
// the shared backlog). Tenants always retain round-robin dispatch fairness
// either way.
func NewQueue(workers, backlog, quota int) *Queue {
	if workers < 1 {
		workers = 1
	}
	if backlog < 0 {
		backlog = 0
	}
	if quota < 1 || quota > backlog {
		quota = backlog
	}
	q := &Queue{
		backlog: backlog,
		quota:   quota,
		slotCh:  make(chan struct{}),
		tenants: make(map[string][]queueTask),
	}
	q.cond = sync.NewCond(&q.mu)
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

func (q *Queue) worker() {
	defer q.wg.Done()
	q.mu.Lock()
	for {
		if q.waiting == 0 {
			if q.closed {
				q.mu.Unlock()
				return
			}
			// Going idle grows admission capacity (a zero-backlog queue
			// admits exactly as many jobs as there are parked workers), so
			// blocked producers get woken to retry.
			q.idle++
			q.notifySlotLocked()
			q.cond.Wait()
			q.idle--
			continue
		}
		t := q.popLocked()
		q.notifySlotLocked()
		q.mu.Unlock()

		q.running.Add(1)
		// A job whose caller already gave up still runs: fn receives the
		// dead context and is expected to unwind immediately (every run
		// path in this codebase checks ctx first). Skipping it here would
		// leave synchronous waiters guessing whether fn observed the
		// cancellation.
		t.fn(t.ctx)
		q.running.Add(-1)
		close(t.done)

		q.mu.Lock()
	}
}

// popLocked dequeues the next task round-robin across tenants. Drained
// tenants leave the rotation immediately, so Depths never reports empty
// tenants and a returning tenant re-enters at the back of the rotation.
func (q *Queue) popLocked() queueTask {
	for i := 0; i < len(q.rr); i++ {
		idx := (q.rrIdx + i) % len(q.rr)
		name := q.rr[idx]
		ts := q.tenants[name]
		if len(ts) == 0 {
			continue
		}
		t := ts[0]
		if len(ts) == 1 {
			delete(q.tenants, name)
			q.rr = append(q.rr[:idx], q.rr[idx+1:]...)
			if len(q.rr) == 0 {
				q.rrIdx = 0
			} else {
				q.rrIdx = idx % len(q.rr)
			}
		} else {
			q.tenants[name] = ts[1:]
			q.rrIdx = (idx + 1) % len(q.rr)
		}
		q.waiting--
		return t
	}
	panic("pool: popLocked with no queued tasks")
}

// admitLocked reports whether a job for tenant fits right now. Idle workers
// extend both bounds: a parked worker will take the job immediately, so it
// never really occupies backlog — this is what preserves the historical
// "zero-backlog queue admits while a worker is receiving" semantics.
func (q *Queue) admitLocked(tenant string) bool {
	if q.waiting >= q.backlog+q.idle {
		return false
	}
	return len(q.tenants[tenant]) < q.quota+q.idle
}

func (q *Queue) pushLocked(tenant string, t queueTask) {
	ts, ok := q.tenants[tenant]
	if !ok {
		q.rr = append(q.rr, tenant)
	}
	q.tenants[tenant] = append(ts, t)
	q.waiting++
	q.cond.Signal()
}

// notifySlotLocked wakes every producer blocked on admission; each retries
// under the lock, so spurious wakeups are safe.
func (q *Queue) notifySlotLocked() {
	close(q.slotCh)
	q.slotCh = make(chan struct{})
}

// Mode selects what Submit does when a job does not fit right now.
type Mode int

const (
	// FailFast rejects the job with ErrQueueFull: single-shot request
	// handlers use it so saturation surfaces as back-pressure (HTTP 429)
	// instead of parked handlers.
	FailFast Mode = iota
	// Block parks the caller until a slot frees (a task is dispatched or a
	// worker goes idle) or ctx dies. Batch producers use it, so admission
	// control becomes backpressure on the one batch request rather than
	// hundreds of individual ErrQueueFull rejections. The per-tenant quota
	// applies while parked, so one tenant's batch cannot monopolize slots
	// as they free up.
	Block
)

// Submit is the queue's one admission path. It enqueues fn to run with ctx
// on a free worker under tenant's quota and fair-dispatch turn, and returns
// a channel that is closed once fn has returned. Synchronous callers wait
// on it; because fn may reference caller-owned state, a caller whose ctx
// died must still wait rather than return while fn runs (fn sees the dead
// context and is expected to unwind immediately).
//
// The failure modes stay distinguishable: ErrQueueClosed after Close,
// ErrQueueFull when a FailFast job does not fit, and ctx.Err() (errors.Is
// context.Canceled / DeadlineExceeded) when a Block caller's context dies
// while parked — callers map the first to service-unavailable, the second
// to back-pressure, and treat the last as their own cancellation. No lock
// is held while parked.
func (q *Queue) Submit(ctx context.Context, tenant string, mode Mode, fn func(context.Context)) (<-chan struct{}, error) {
	t := queueTask{ctx: ctx, fn: fn, done: make(chan struct{})}
	q.mu.Lock()
	for {
		if q.closed {
			q.mu.Unlock()
			return nil, ErrQueueClosed
		}
		if q.admitLocked(tenant) {
			q.pushLocked(tenant, t)
			q.mu.Unlock()
			return t.done, nil
		}
		if mode == FailFast {
			q.mu.Unlock()
			return nil, ErrQueueFull
		}
		ch := q.slotCh
		q.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		q.mu.Lock()
	}
}

// Closed reports whether Close has begun: admission is permanently over
// and every entry point returns ErrQueueClosed. Streaming handlers check
// it up front so shutdown surfaces as an HTTP 503 instead of a half-sent
// body (once the response header is out, an in-stream shutdown can only be
// reported in-band).
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Depth returns the number of jobs waiting for a worker.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiting
}

// Depths returns the per-tenant waiting counts (nil when nothing waits).
// Tenants with no queued work are absent, not zero.
func (q *Queue) Depths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tenants) == 0 {
		return nil
	}
	m := make(map[string]int, len(q.tenants))
	for name, ts := range q.tenants {
		m[name] = len(ts)
	}
	return m
}

// Running returns the number of jobs currently executing.
func (q *Queue) Running() int { return int(q.running.Load()) }

// Close stops admission, waits for queued and running jobs to drain, and
// returns. Jobs that should not run to completion must be cancelled through
// their own contexts before Close is called.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		// Wake parked workers (they exit once the backlog drains) and any
		// blocked producers (they must observe ErrQueueClosed, not hang).
		q.cond.Broadcast()
		q.notifySlotLocked()
	}
	q.mu.Unlock()
	q.wg.Wait()
}
