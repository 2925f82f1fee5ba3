// Package sim provides a small discrete-event simulation kernel used by the
// Lustre parallel file system model. Time is a float64 number of seconds.
//
// The kernel is deliberately continuation-based rather than
// process-oriented: model code schedules closures at future instants and
// chains multi-stage operations (client window -> NIC -> server disk) by
// passing completion callbacks through Resource.Acquire. This keeps a full
// tuning run (hundreds of thousands of events) in the low milliseconds.
//
// The hot path is (near-)allocation-free and runs three kinds of queue:
//
//   - a hand-rolled 4-ary min-heap of pointer-free {at, seq, idx} records
//     for arbitrary future instants, with payloads in a reusable arena;
//   - a FIFO lane for same-instant wakeups (at == now);
//   - one FIFO per fixed delay registered with NewDelay, for events
//     scheduled a constant d ahead (AfterDelay): the clock never goes
//     backwards and IEEE addition is monotonic, so now+d never decreases
//     and the FIFO is already in (at, seq) order without a heap sift.
//
// Resource wait queues are ring buffers, and the Acquire/Use grant paths
// record what to run at the grant in waiter slots instead of capture
// closures. The kernel keeps no statistics: a resource knows only its
// capacity, its holders and its queue.
// Event ordering is bit-identical to the original container/heap kernel —
// strictly increasing (at, seq) — which the equivalence and fuzz suites in
// this package assert against a reference implementation.
package sim

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
)

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now float64
	seq uint64
	// heap holds time-ordered future events; lane holds events scheduled at
	// the current instant (at == now), which dominate real runs because
	// every Resource grant is a same-instant wakeup; delays holds one FIFO
	// per registered fixed delay, and first indexes the one with the least
	// head (-1 when all are empty). Lane and delay-queue entries are
	// already (at, seq)-sorted, so the run loop merges all queues by head
	// comparison instead of paying a heap sift per event. Heap payloads
	// live in arena slots recycled through free; FIFO payloads sit inline
	// in their ring slots. See heap.go.
	heap   []heapItem
	lane   Ring[laneItem]
	delays []delayQueue
	first  int
	arena  []event
	free   []int32

	fired   uint64
	stopped bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{first: -1}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// totalFired accumulates events fired across all engines in the process,
// added once per RunContext return rather than per event so the hot loop
// carries no atomics. stellar-bench uses the delta to report events/sec and
// allocs/event for every pass.
var totalFired atomic.Uint64

// TotalFired returns the process-wide count of simulation events executed
// by completed or aborted runs.
func TotalFired() uint64 { return totalFired.Load() }

// At schedules fn to run at absolute time t. Scheduling in the past or at a
// non-finite instant panics: both always indicate a model bug, and a NaN
// would otherwise slip through the past-check (every comparison against NaN
// is false) and silently corrupt the event heap's ordering invariant.
//
//stellar:hotpath
func (e *Engine) At(t float64, fn func()) {
	e.schedule(t, event{kind: evFire, fn: fn})
}

// After schedules fn to run d seconds from now. Negative or non-finite d
// panics.
//
//stellar:hotpath
func (e *Engine) After(d float64, fn func()) {
	if !(d >= 0 && d <= math.MaxFloat64) { // rejects negatives, NaN, ±Inf in one branch
		panic(fmt.Sprintf("sim: negative or non-finite delay %g", d))
	}
	e.schedule(e.now+d, event{kind: evFire, fn: fn})
}

// Delay is a fixed delay registered with NewDelay. It is valid on the
// engine that issued it until that engine's next Reset.
type Delay struct{ i int32 }

// NewDelay registers a fixed delay of d seconds and returns its handle for
// AfterDelay. Events scheduled through one handle queue in a FIFO of their
// own instead of the heap. Negative or non-finite d panics.
func (e *Engine) NewDelay(d float64) Delay {
	if !(d >= 0 && d <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: negative or non-finite delay %g", d))
	}
	// Reset keeps the queues past len, so a recycled engine re-registers
	// into its old ring buffers without allocating.
	n := len(e.delays)
	if n < cap(e.delays) {
		e.delays = e.delays[:n+1]
	} else {
		e.delays = append(e.delays, delayQueue{})
	}
	e.delays[n].d = d
	return Delay{int32(n)}
}

// AfterDelay schedules fn to run after the fixed delay d, exactly as
// After(d's seconds, fn) would: same instant, same sequence number, same
// panic on a non-finite instant. Only the queue differs.
//
//stellar:hotpath
func (e *Engine) AfterDelay(d Delay, fn func()) {
	q := &e.delays[d.i]
	t := e.now + q.d
	if !(t <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: scheduling at non-finite time %g", t))
	}
	e.seq++
	if t == e.now {
		it := e.lane.put()
		it.seq, it.ev = e.seq, event{kind: evFire, fn: fn}
		return
	}
	// A push behind an existing head changes no head. Onto an empty queue
	// it becomes the least head if it is earlier than the current one: it
	// carries the highest seq yet, so it can win on at alone.
	if q.q.n == 0 && (e.first < 0 || t < e.delays[e.first].q.peek().at) {
		e.first = int(d.i)
	}
	it := q.q.put()
	it.at, it.seq, it.ev = t, e.seq, event{kind: evFire, fn: fn}
}

// popDelay removes the least delay-queue head, advances the clock to its
// instant, finds the next least head, and returns the payload.
//
//stellar:hotpath
func (e *Engine) popDelay() event {
	q := &e.delays[e.first].q
	it := q.peek()
	e.now = it.at
	ev := it.ev
	q.drop()
	e.first = -1
	var at float64
	var seq uint64
	for i := range e.delays {
		if q := &e.delays[i].q; q.n > 0 {
			if h := q.peek(); e.first < 0 || h.at < at || (h.at == at && h.seq < seq) {
				e.first, at, seq = i, h.at, h.seq
			}
		}
	}
	return ev
}

// schedule stamps the event with the next sequence number and enqueues it:
// the FIFO lane when it lands on the current instant, the heap otherwise.
//
//stellar:hotpath
func (e *Engine) schedule(t float64, ev event) {
	if !(t >= e.now && t <= math.MaxFloat64) {
		// Slow path only for the panic message: NaN and ±Inf fail the
		// combined guard just like past times do.
		if math.IsNaN(t) || math.IsInf(t, 0) {
			panic(fmt.Sprintf("sim: scheduling at non-finite time %g", t))
		}
		panic(fmt.Sprintf("sim: scheduling into the past: t=%g now=%g", t, e.now))
	}
	e.seq++
	if t == e.now {
		it := e.lane.put()
		it.seq, it.ev = e.seq, ev
	} else {
		e.heapPush(heapItem{at: t, seq: e.seq, idx: e.alloc(ev)})
	}
}

// scheduleNow enqueues a kernel-generated event at the current instant —
// the Resource grant path, which needs none of schedule's range checks.
//
//stellar:hotpath
func (e *Engine) scheduleNow(ev event) {
	e.seq++
	it := e.lane.put()
	it.seq, it.ev = e.seq, ev
}

// afterDelay is After for internal kernel events; it applies After's
// validation so model bugs (a negative or NaN service time) panic at the
// same instant, with the same message, as the closure-based idiom did.
//
//stellar:hotpath
func (e *Engine) afterDelay(d float64, ev event) {
	if !(d >= 0 && d <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: negative or non-finite delay %g", d))
	}
	e.schedule(e.now+d, ev)
}

// Stop aborts the run loop after the current event returns.
//
//stellar:keep an op of the refkernel equivalence program in this package's tests
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to its initial state — clock at zero, no pending
// events, no registered delays — while keeping the heap, lane, delay-queue,
// arena, and free-list capacity, so a pooled engine reaches an
// allocation-free steady state across runs. Pending events of an aborted
// run are discarded; their slots are zeroed so abandoned closures and
// resources are not pinned.
func (e *Engine) Reset() {
	for i := range e.arena {
		e.arena[i] = event{}
	}
	e.arena = e.arena[:0]
	e.free = e.free[:0]
	e.heap = e.heap[:0]
	e.lane.reset()
	for i := range e.delays {
		e.delays[i].q.reset()
	}
	e.delays = e.delays[:0]
	e.first = -1
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stopped = false
}

// DefaultCheckEvery is the event-count granularity at which RunContext polls
// the context. Large simulations fire millions of events; checking every
// event would put an atomic load on the hot path, while this bound keeps the
// cancellation latency to a few microseconds of simulated work.
const DefaultCheckEvery = 4096

// Run executes events until the queue drains or Stop is called, and returns
// the final clock value. It is the documented uncancellable convenience
// wrapper over RunContext; callers that must honor cancellation use
// RunContext directly.
//
//stellar:allow-background
func (e *Engine) Run() float64 {
	t, _ := e.RunContext(context.Background(), DefaultCheckEvery)
	return t
}

// RunContext executes events like Run but polls ctx every checkEvery events
// (DefaultCheckEvery if <= 0) and aborts mid-simulation with ctx's error
// when it is cancelled. A SIGINT therefore unwinds a long run after at most
// checkEvery more events rather than only once the queue drains.
//
//stellar:hotpath
func (e *Engine) RunContext(ctx context.Context, checkEvery uint64) (float64, error) {
	if checkEvery <= 0 {
		checkEvery = DefaultCheckEvery
	}
	e.stopped = false
	start := e.fired
	defer e.noteFired(start)
	// countdown replaces the old `fired % checkEvery == 0` test: a
	// decrement and branch instead of an integer division per event. It
	// starts at zero so the context is polled before the first event, as
	// the modulo did at fired == 0.
	var countdown uint64
	for (e.lane.n > 0 || len(e.heap) > 0 || e.first >= 0) && !e.stopped {
		if countdown == 0 {
			if err := ctx.Err(); err != nil {
				return e.now, err
			}
			countdown = checkEvery
		}
		countdown--
		// Merge the queues on (at, seq). First the least timed head, the
		// heap's or the least delay queue's (+Inf when both are empty:
		// nothing is ever scheduled there). Lane entries sit at the
		// current instant, so the timed head loses to the lane whenever it
		// is in the future; on a time tie the lower sequence number fires
		// first.
		fromHeap, at, seq := true, math.Inf(1), uint64(0)
		if len(e.heap) > 0 {
			at, seq = e.heap[0].at, e.heap[0].seq
		}
		if e.first >= 0 {
			if h := e.delays[e.first].q.peek(); h.at < at || (h.at == at && h.seq < seq) {
				fromHeap, at, seq = false, h.at, h.seq
			}
		}
		var ev event
		switch {
		case e.lane.n > 0 && (at > e.now || e.lane.peek().seq < seq):
			ev = e.lane.peek().ev
			e.lane.drop()
		case fromHeap:
			it := e.heapPop()
			e.now = it.at
			ev = e.take(it.idx)
		default:
			ev = e.popDelay()
		}
		e.fired++
		switch ev.kind {
		case evFire:
			ev.fn()
		case evUseStart:
			e.afterDelay(ev.arg, event{kind: evUseEnd, res: ev.res, fn: ev.fn})
		case evUseEnd:
			ev.res.Release()
			if ev.fn != nil {
				ev.fn()
			}
		}
	}
	return e.now, nil
}

// noteFired credits this run's events to the process-wide counter. A bound
// method call defers without capturing, unlike the closure it replaced,
// which kept RunContext's frame allocation-free.
func (e *Engine) noteFired(start uint64) { totalFired.Add(e.fired - start) }

// Pending reports the number of events still queued.
//
//stellar:keep an op of the refkernel equivalence program in this package's tests
func (e *Engine) Pending() int {
	n := len(e.heap) + e.lane.Len()
	for i := range e.delays {
		n += e.delays[i].q.Len()
	}
	return n
}

// waiterKind tells dispatch what to schedule at the grant instant.
type waiterKind uint8

const (
	wAcquire waiterKind = iota // fire fn()
	wUse                       // start the service timer, then release + fn
)

// waiter is one queued Acquire or Use request, held by value in the
// queue's ring slot so a request allocates no capture closure.
type waiter struct {
	kind    waiterKind
	fn      func()  // wAcquire: got; wUse: done (may be nil)
	service float64 // wUse
}

// Resource models a station with a fixed number of parallel servers and a
// FIFO queue, e.g. an OST with N service threads or an RPC-window slot pool.
// Acquire hands the caller a slot as soon as one frees; the caller later
// Releases it, after arbitrary asynchronous work when the resource is a
// window such as a client's in-flight RPC limit. Service time is chosen by
// the caller, which keeps the resource mechanism independent of the cost
// model.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	queue    Ring[waiter]
}

// NewResource creates a resource with the given number of parallel servers.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1: " + name)
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// SetCapacity grows or shrinks the server pool. Shrinking below the number
// of busy servers is allowed; the pool drains naturally.
//
//stellar:keep an op of the refkernel equivalence program in this package's tests
func (r *Resource) SetCapacity(c int) {
	if c < 1 {
		panic("sim: resource capacity must be >= 1: " + r.name)
	}
	r.capacity = c
	r.dispatch()
}

// Acquire requests a server slot; got runs (as a scheduled event at the
// acquisition instant) once a slot is owned. The holder gives the slot back
// with Release.
//
//stellar:hotpath
func (r *Resource) Acquire(got func()) {
	r.enqueue(waiter{kind: wAcquire, fn: got})
}

// Use acquires a slot, holds it for service seconds, releases it, then runs
// done. It is the common acquire/delay/release idiom, executed natively by
// the kernel so it costs no closure allocations.
//
//stellar:hotpath
func (r *Resource) Use(service float64, done func()) {
	r.enqueue(waiter{kind: wUse, fn: done, service: service})
}

//stellar:hotpath
func (r *Resource) enqueue(w waiter) {
	r.queue.Push(w)
	r.dispatch()
}

// Release returns a slot to the pool and wakes the next waiter, if any.
//
//stellar:hotpath
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
	r.dispatch()
}

//stellar:hotpath
func (r *Resource) dispatch() {
	for r.inUse < r.capacity && r.queue.n > 0 {
		w := r.queue.Pop()
		r.inUse++
		// The grant fires as a same-instant event so acquisition order
		// interleaves with other activity deterministically. An Acquire
		// grant is a plain closure event; a Use grant starts the service
		// timer.
		if w.kind == wUse {
			r.eng.scheduleNow(event{kind: evUseStart, res: r, arg: w.service, fn: w.fn})
		} else {
			r.eng.scheduleNow(event{kind: evFire, fn: w.fn})
		}
	}
}

// Pipe models a bandwidth-shared link (a NIC or switch port) as a single
// FIFO server whose service time is size/rate. It approximates fair sharing
// well enough for throughput modelling while staying O(1) per transfer.
type Pipe struct {
	res  *Resource
	rate float64 // bytes per second
}

// NewPipe creates a link with the given rate in bytes/second.
func NewPipe(eng *Engine, name string, rate float64) *Pipe {
	if !(rate > 0 && rate <= math.MaxFloat64) {
		panic("sim: pipe rate must be positive and finite: " + name)
	}
	return &Pipe{res: NewResource(eng, name, 1), rate: rate}
}

// Rate returns the link rate in bytes/second.
func (p *Pipe) Rate() float64 { return p.rate }

// Send transfers size bytes through the link and then runs done. A
// negative, NaN, or infinite size panics here, at the source: `size < 0`
// alone lets NaN and +Inf through to the service-time computation, where
// they would only surface later as a confusing non-finite-delay panic (or,
// for +Inf, a transfer pinning the clock at infinity) far from the buggy
// caller.
//
//stellar:hotpath
func (p *Pipe) Send(size float64, done func()) {
	if !(size >= 0 && size <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: negative or non-finite transfer size %g on pipe %s", size, p.res.name))
	}
	p.res.Use(size/p.rate, done)
}
