package sim

// Event storage for the kernel's three kinds of run queue. The design goal
// is an allocation-free, write-barrier-free steady state:
//
//   - The time-ordered queue is a hand-rolled 4-ary min-heap of heapItem
//     {at, seq, idx} — 24 bytes, pointer-free — so sift operations copy
//     small POD values and trigger no GC write barriers. Heap payloads (the
//     closure / resource pointers) live by value in a reusable arena slab
//     with a free list, so scheduling never allocates (the old kernel paid
//     one *event allocation plus `any` boxing per container/heap Push/Pop).
//   - Same-instant wakeups (at == Engine.now, the Resource grant fast path)
//     bypass the heap entirely through a FIFO ring, the lane.
//   - Each fixed delay registered with Engine.NewDelay owns a FIFO ring of
//     its own: events scheduled at now+d for one constant d (a network hop,
//     a think time) bypass the heap too.
//
// FIFO entries never move once queued, so they carry their payload inline
// in the ring slot; only heap items pay the arena indirection.
//
// Ordering invariant: events fire in strictly increasing (at, seq) order.
// seq values are unique and assigned in scheduling order, so the order is
// total and same-instant events fire in scheduling order (stable). The lane
// holds only events with at == Engine.now appended in seq order, so it is
// itself (at, seq)-sorted. A delay queue is sorted for the same reason: the
// clock never goes backwards and IEEE addition is monotonic, so now+d never
// decreases from one push to the next while seq strictly increases. The run
// loop merges the lane, the heap and every delay queue by comparing their
// heads, which reproduces the exact pop sequence of a single (at, seq) heap
// — proven against a reference container/heap kernel by the equivalence
// and fuzz suites in this package.

// eventKind selects how the run loop executes an event. Beyond plain
// closures (which include Resource.Acquire grants) the kernel knows the two
// halves of Resource.Use natively, which removes the capture closures that
// idiom used to allocate per call.
type eventKind uint8

const (
	evFire     eventKind = iota // call fn(): At, After, AfterDelay, an Acquire grant
	evUseStart                  // grant instant of Resource.Use: start the service timer
	evUseEnd                    // service done: release res, then call fn
)

// event is one scheduled occurrence's payload, stored by value in an arena
// slot (heap events) or inline in a FIFO ring slot (lane and delay queues).
// It is 32 bytes on 64-bit platforms, so a lane slot is 40 and a delay
// slot 48.
type event struct {
	kind eventKind
	fn   func()    // evFire: the closure; evUseStart/evUseEnd: done (may be nil)
	res  *Resource // evUseStart, evUseEnd
	arg  float64   // evUseStart: service duration
}

// heapItem is the pointer-free ordering record kept in the 4-ary heap.
type heapItem struct {
	at  float64
	seq uint64
	idx int32 // arena slot
}

// laneItem is a same-instant event in the FIFO lane; its at is Engine.now.
type laneItem struct {
	seq uint64
	ev  event
}

// delayItem is an event in a fixed-delay FIFO queue.
type delayItem struct {
	at  float64
	seq uint64
	ev  event
}

// delayQueue is the FIFO of one delay registered with Engine.NewDelay.
type delayQueue struct {
	d float64
	q Ring[delayItem]
}

// alloc places ev in an arena slot and returns its index.
//
//stellar:hotpath
func (e *Engine) alloc(ev event) int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		e.arena[i] = ev
		return i
	}
	e.arena = append(e.arena, ev)
	return int32(len(e.arena) - 1)
}

// take reads the payload out of slot i and recycles the slot, clearing its
// pointers so a completed event doesn't pin its closure or resource.
//
//stellar:hotpath
func (e *Engine) take(i int32) event {
	ev := e.arena[i]
	e.arena[i] = event{}
	e.free = append(e.free, i)
	return ev
}

// heapPush inserts an item into the 4-ary min-heap. The hole-based sift-up
// moves ancestors down and writes the new item once, instead of swapping
// element-wise.
//
//stellar:hotpath
func (e *Engine) heapPush(it heapItem) {
	e.heap = append(e.heap, it)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at < it.at || (h[p].at == it.at && h[p].seq < it.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// heapPop removes and returns the minimum item.
//
//stellar:hotpath
func (e *Engine) heapPop() heapItem {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// siftDown re-seats it (the displaced last element) starting from the root.
// A 4-ary layout halves the tree depth versus binary at the cost of
// comparing up to four children per level — a good trade when each
// comparison is two inlined scalar compares on a 24-byte record rather than
// an interface method call on boxed pointers.
//
//stellar:hotpath
func (e *Engine) siftDown(it heapItem) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].at < h[m].at || (h[j].at == h[m].at && h[j].seq < h[m].seq) {
				m = j
			}
		}
		if it.at < h[m].at || (it.at == h[m].at && it.seq < h[m].seq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = it
}

// Ring is a growable power-of-two FIFO ring buffer of values. It backs
// Resource wait queues and the engine's same-instant lane and fixed-delay
// queues; model code uses it for FIFOs of its own.
// Indexing is a mask, not a modulo; Pop zeroes the vacated slot so drained
// entries don't pin their closures. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v; the cold grow path (which must allocate) stays
// unannotated by design.
//
//stellar:hotpath
func (r *Ring[T]) Push(v T) { *r.put() = v }

// put appends a slot and returns it for the caller to fill in place, which
// spares large elements (the engine's inline event payloads) a copy
// through a by-value argument. The pointer is valid until the next put.
//
//stellar:hotpath
func (r *Ring[T]) put() *T {
	if r.n == len(r.buf) {
		r.grow()
	}
	p := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	return p
}

// Pop removes and returns the oldest element, which must exist.
//
//stellar:hotpath
func (r *Ring[T]) Pop() T {
	v := *r.peek()
	r.drop()
	return v
}

// Tail returns a pointer to the newest element, or nil when the ring is
// empty. The pointer is valid until the next Push.
//
//stellar:hotpath
func (r *Ring[T]) Tail() *T {
	if r.n == 0 {
		return nil
	}
	return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)]
}

// drop removes the oldest element, zeroing its slot.
//
//stellar:hotpath
func (r *Ring[T]) drop() {
	if r.n == 0 {
		panic("sim: pop from empty ring")
	}
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// peek returns a pointer to the oldest element, which must exist.
//
//stellar:hotpath
func (r *Ring[T]) peek() *T { return &r.buf[r.head] }

// reset empties the ring in place, zeroing the occupied slots so abandoned
// entries don't pin their payloads, while keeping the buffer for reuse.
func (r *Ring[T]) reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = zero
	}
	r.head, r.n = 0, 0
}

func (r *Ring[T]) grow() {
	c := len(r.buf) * 2
	if c < 16 {
		c = 16
	}
	buf := make([]T, c)
	m := copy(buf, r.buf[r.head:])
	copy(buf[m:], r.buf[:r.head])
	r.buf = buf
	r.head = 0
}
