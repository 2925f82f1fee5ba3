package sim

// This file is a faithful copy of the seed kernel — container/heap of
// *refEvent, slice-shifting resource queues, per-Use capture closures —
// kept as the reference implementation the optimized kernel must match
// event-for-event. The equivalence and fuzz suites drive identical
// scenarios through both and require the same fire order, final clock,
// fired count, and pending count.

import (
	"container/heap"
	"fmt"
	"math"
)

type refEvent struct {
	at   float64
	seq  uint64
	fire func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refEngine struct {
	now     float64
	seq     uint64
	events  refHeap
	fired   uint64
	stopped bool
}

func newRefEngine() *refEngine {
	e := &refEngine{}
	heap.Init(&e.events)
	return e
}

func (e *refEngine) Now() float64  { return e.now }
func (e *refEngine) Fired() uint64 { return e.fired }
func (e *refEngine) Stop()         { e.stopped = true }
func (e *refEngine) Pending() int  { return e.events.Len() }

func (e *refEngine) At(t float64, fn func()) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling at non-finite time %g", t))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: t=%g now=%g", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, &refEvent{at: t, seq: e.seq, fire: fn})
}

func (e *refEngine) After(d float64, fn func()) {
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		panic(fmt.Sprintf("sim: negative or non-finite delay %g", d))
	}
	e.At(e.now+d, fn)
}

func (e *refEngine) Run() float64 {
	e.stopped = false
	for e.events.Len() > 0 && !e.stopped {
		ev := heap.Pop(&e.events).(*refEvent)
		e.now = ev.at
		e.fired++
		ev.fire()
	}
	return e.now
}

type refResource struct {
	eng      *refEngine
	name     string
	capacity int
	inUse    int
	queue    []func()
}

func newRefResource(eng *refEngine, name string, capacity int) *refResource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1: " + name)
	}
	return &refResource{eng: eng, name: name, capacity: capacity}
}

func (r *refResource) SetCapacity(c int) {
	if c < 1 {
		panic("sim: resource capacity must be >= 1: " + r.name)
	}
	r.capacity = c
	r.dispatch()
}

func (r *refResource) Acquire(got func()) {
	r.queue = append(r.queue, got)
	r.dispatch()
}

func (r *refResource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
	r.dispatch()
}

func (r *refResource) dispatch() {
	for r.inUse < r.capacity && len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.inUse++
		r.eng.After(0, next)
	}
}

func (r *refResource) Use(service float64, done func()) {
	r.Acquire(func() {
		r.eng.After(service, func() {
			r.Release()
			if done != nil {
				done()
			}
		})
	})
}
