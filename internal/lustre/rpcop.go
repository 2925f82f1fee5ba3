package lustre

import (
	"math/rand"
	"sync"

	"stellar/internal/sim"
)

// This file holds the allocation-free continuation machinery for the model
// layer. The seed implementation chained every data RPC through a 6-deep
// capture-closure pyramid (sendRPC) and every metadata RPC through a similar
// stack (metaRPC); at ~10k RPCs per run and 8 reps per evaluation that was
// the dominant allocation source above the event kernel. Here each in-flight
// operation lives in a free-listed arena slot — rpcOp for bulk RPCs, metaOp
// for metadata RPCs, readReq for multi-chunk application reads — advanced by
// one pre-allocated continuation closure per slot. The closures capture the
// scratch (not the runner), so a sync.Pool can recycle the arenas, their
// closures, and the engine across runs; a recycled run's steady state
// performs zero allocations per operation.
//
// Every state transition below reproduces the seed closures' exact schedule
// calls and rng draws in the exact order, which is what keeps Result fields
// and trace events bit-identical under the golden-replay suite.

// rpcOp states: what the slot's continuation does when it next fires.
const (
	rsAdmitRead  uint8 = iota // OSC window granted: start a read/readahead RPC
	rsAdmitWrite              // OSC window granted: pop the staged group, start it
	rsNodeNIC                 // request RTT/2 elapsed: enter the client NIC
	rsOstNIC                  // client NIC done: enter the OST NIC
	rsThreads                 // OST NIC done: compute setup, queue for a service thread
	rsSetup                   // service thread granted: run the setup delay
	rsMedia                   // setup done: serialized media transfer
	rsReply                   // media done: release the thread, reply RTT/2
	rsDone                    // reply arrived: bookkeeping + completion dispatch
)

// rpcOp completion kinds.
const (
	rcWrite   uint8 = iota // write-back group flushed
	rcRead                 // one chunk of a synchronous application read
	rcRA                   // readahead chunk landed
	rcRAProbe              // misfired readahead probe (random-access waste)
)

// rpcOp is one bulk RPC in flight, stored by value in the scratch arena.
type rpcOp struct {
	state uint8
	kind  uint8
	write bool
	node  int32
	ost   int32
	file  int32
	rank  int32 // rcRA: rank owning the readahead stream
	req   int32 // rcRead: readReq arena slot
	off   int64
	size  int64
	media float64
	setup float64
	cont  func() // allocated once per slot; advances this op's state machine
}

// metaOp states.
const (
	msEnter   uint8 = iota // metadata window granted: request RTT/2
	msLock                 // at the MDS: take the directory lock if serialized
	msService              // directory lock released: MDS service time
	msReply                // MDS done: reply RTT/2
	msDone                 // reply arrived: release window + completion dispatch
)

// metaOp completion kinds.
const (
	mcDone      uint8 = iota // plain completion of the rank's current op
	mcInsert                 // insert into the node's metaCache, then complete
	mcClose                  // asynchronous close retired
	mcUnlink                 // evict everywhere, mark destroyed, complete
	mcStatahead              // statahead prefetch landed: wake its waiters
)

// metaOp is one metadata RPC in flight.
type metaOp struct {
	state   uint8
	kind    uint8
	mod     bool // which window gate (mdc vs mdcMod)
	node    int32
	dir     int32
	file    int32
	rank    int32
	serial  float64
	service float64
	cont    func()
}

// readReq is one multi-chunk application read (or a read parked on in-flight
// readahead) awaiting completion.
type readReq struct {
	rank      int32
	node      int32
	file      int32
	remaining int32
	end       int64
	memcpy    float64
	seq       bool
	cont      func() // readahead-arrival wakeup: count the hit and finish
}

// rankConts is the per-rank continuation table: the four resumption points a
// rank's op sequence ever needs, allocated once per scratch slot and reused
// for every op of every recycled run.
type rankConts struct {
	done  func() // record the finished op's trace event, schedule the next
	next  func() // advance to the next op in the rank's program
	stat  func() // statahead wakeup: count the stat hit, then done
	admit func() // resume a dirty-throttled write admission loop
}

// fifo is a growable power-of-two FIFO of values with tail access, used for
// the OSC write-back staging ring and the dirty-throttle waiter queue. It
// mirrors the sim package's ring but adds tail (newest element) for group
// coalescing.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (f *fifo[T]) len() int { return f.n }

func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

func (f *fifo[T]) pop() T {
	if f.n == 0 {
		panic("lustre: pop from empty fifo")
	}
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// tail returns a pointer to the newest element, or nil when empty.
func (f *fifo[T]) tail() *T {
	if f.n == 0 {
		return nil
	}
	return &f.buf[(f.head+f.n-1)&(len(f.buf)-1)]
}

func (f *fifo[T]) grow() {
	c := len(f.buf) * 2
	if c < 8 {
		c = 8
	}
	buf := make([]T, c)
	m := copy(buf, f.buf[f.head:])
	copy(buf[m:], f.buf[:f.head])
	f.buf = buf
	f.head = 0
}

// scratch bundles everything reusable across runs: the simulation engine
// and its rng, the three op arenas with their free lists and per-slot
// continuations, the per-rank continuation table, and the runner's tables.
// The closures capture the scratch and dereference sc.r at fire time, so
// the same scratch serves a different runner on every recycled run.
type scratch struct {
	r   *runner
	eng *sim.Engine
	rng *rand.Rand

	rpcs    []rpcOp
	rpcFree []int32

	metas    []metaOp
	metaFree []int32

	reqs    []readReq
	reqFree []int32

	ranks  []rankConts
	tables tables
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{eng: sim.NewEngine(), rng: rand.New(rand.NewSource(1))}
}}

// acquireScratch checks a scratch out of the pool, ready for a fresh run:
// engine at time zero, every arena slot free, at least nranks rank slots.
func acquireScratch(nranks int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.eng.Reset()
	sc.resetArena()
	sc.ensureRanks(nranks)
	return sc
}

// release returns the scratch to the pool. The runner pointer is dropped so
// the pool doesn't pin a completed run's state.
func (sc *scratch) release() {
	sc.r = nil
	scratchPool.Put(sc)
}

// resetArena marks every slot free and clears stale state. A cancelled run
// abandons in-flight ops, so the free lists are rebuilt from scratch rather
// than trusting the previous run to have drained.
func (sc *scratch) resetArena() {
	sc.rpcFree = sc.rpcFree[:0]
	for i := range sc.rpcs {
		c := sc.rpcs[i].cont
		sc.rpcs[i] = rpcOp{cont: c}
		sc.rpcFree = append(sc.rpcFree, int32(i))
	}
	sc.metaFree = sc.metaFree[:0]
	for i := range sc.metas {
		c := sc.metas[i].cont
		sc.metas[i] = metaOp{cont: c}
		sc.metaFree = append(sc.metaFree, int32(i))
	}
	sc.reqFree = sc.reqFree[:0]
	for i := range sc.reqs {
		c := sc.reqs[i].cont
		sc.reqs[i] = readReq{cont: c}
		sc.reqFree = append(sc.reqFree, int32(i))
	}
}

// ensureRanks grows the per-rank continuation table to n slots. Each slot's
// closures are allocated exactly once over the scratch's lifetime.
func (sc *scratch) ensureRanks(n int) {
	for len(sc.ranks) < n {
		k := len(sc.ranks)
		sc.ranks = append(sc.ranks, rankConts{
			done:  func() { sc.r.opDone(k) },
			next:  func() { sc.r.nextOp(k) },
			stat:  func() { sc.r.statWake(k) },
			admit: func() { sc.r.admitWrite(k) },
		})
	}
}

// newRPC hands out a free rpcOp slot, allocating its continuation only the
// first time the slot ever exists.
func (sc *scratch) newRPC() int32 {
	if n := len(sc.rpcFree); n > 0 {
		i := sc.rpcFree[n-1]
		sc.rpcFree = sc.rpcFree[:n-1]
		return i
	}
	i := int32(len(sc.rpcs))
	sc.rpcs = append(sc.rpcs, rpcOp{})
	sc.rpcs[i].cont = func() { sc.r.rpcStep(i) }
	return i
}

func (sc *scratch) freeRPC(i int32) {
	c := sc.rpcs[i].cont
	sc.rpcs[i] = rpcOp{cont: c}
	sc.rpcFree = append(sc.rpcFree, i)
}

func (sc *scratch) newMeta() int32 {
	if n := len(sc.metaFree); n > 0 {
		i := sc.metaFree[n-1]
		sc.metaFree = sc.metaFree[:n-1]
		return i
	}
	i := int32(len(sc.metas))
	sc.metas = append(sc.metas, metaOp{})
	sc.metas[i].cont = func() { sc.r.metaStep(i) }
	return i
}

func (sc *scratch) freeMeta(i int32) {
	c := sc.metas[i].cont
	sc.metas[i] = metaOp{cont: c}
	sc.metaFree = append(sc.metaFree, i)
}

func (sc *scratch) newReq() int32 {
	if n := len(sc.reqFree); n > 0 {
		i := sc.reqFree[n-1]
		sc.reqFree = sc.reqFree[:n-1]
		return i
	}
	i := int32(len(sc.reqs))
	sc.reqs = append(sc.reqs, readReq{})
	sc.reqs[i].cont = func() { sc.r.raWake(i) }
	return i
}

func (sc *scratch) freeReq(i int32) {
	c := sc.reqs[i].cont
	sc.reqs[i] = readReq{cont: c}
	sc.reqFree = append(sc.reqFree, i)
}

// rpcStep advances a bulk RPC one stage. The stages replay the seed
// sendRPC closure chain: request flight, client NIC, OST NIC, setup time
// drawn then a service thread acquired, setup delay, serialized media,
// thread release, reply flight, completion. Draw order is load-bearing:
// media jitter at admission, setup jitter when the OST NIC finishes.
func (r *runner) rpcStep(i int32) {
	op := &r.sc.rpcs[i]
	switch op.state {
	case rsAdmitWrite:
		// The OSC window grants FIFO in Enter order and groups stage in the
		// same order, so this grant's group is always the ring head. The
		// group kept coalescing until this instant; send its final extent.
		osc := r.osc[op.node][op.ost]
		g := osc.groups.pop()
		op.file, op.off, op.size = g.file, g.off, g.size
		r.startRPC(op)
	case rsAdmitRead:
		r.startRPC(op)
	case rsNodeNIC:
		op.state = rsOstNIC
		r.nodeNIC[op.node].Send(float64(op.size), op.cont)
	case rsOstNIC:
		op.state = rsThreads
		r.ostNIC[op.ost].Send(float64(op.size), op.cont)
	case rsThreads:
		if r.faults != nil {
			// A dropped OST stalls the RPC here, before the setup draw;
			// state is unchanged so the wakeup re-checks the schedule.
			if wait := r.faults.stall(int(op.ost), r.eng.Now()); wait > 0 {
				r.res.FaultStalls++
				r.res.FaultStallSec += wait
				r.eng.After(wait, op.cont)
				return
			}
		}
		op.setup = r.setupService(&r.files[op.file], chunk{ost: int(op.ost), off: op.off, size: op.size})
		op.state = rsSetup
		r.ostThreads[op.ost].Acquire(op.cont)
	case rsSetup:
		op.state = rsMedia
		r.eng.After(op.setup, op.cont)
	case rsMedia:
		op.state = rsReply
		p := r.ostBW[op.ost]
		media := op.media
		if r.faults != nil {
			media /= r.faults.bwFactor(int(op.ost), r.eng.Now())
		}
		p.Send(media*p.Rate(), op.cont)
	case rsReply:
		r.ostThreads[op.ost].Release()
		op.state = rsDone
		r.eng.AfterDelay(r.hop, op.cont)
	case rsDone:
		if now := r.eng.Now(); now > r.res.LastDataRPC {
			r.res.LastDataRPC = now
		}
		r.completeRPC(i)
	}
}

// startRPC begins the post-admission pipeline; the media-time jitter is
// drawn here, at the admission instant, exactly where sendRPC drew it.
func (r *runner) startRPC(op *rpcOp) {
	r.res.DataRPCs++
	op.media = r.mediaTime(op.size, op.write)
	op.state = rsNodeNIC
	r.eng.AfterDelay(r.hop, op.cont)
}

// completeRPC dispatches an arrived RPC reply by kind. Fields are copied out
// and the slot freed first: the dispatch may re-enter model code (readahead
// issue, waiter wakeups) that takes new slots and can grow the arena.
func (r *runner) completeRPC(i int32) {
	op := &r.sc.rpcs[i]
	kind := op.kind
	node, ost := int(op.node), int(op.ost)
	file, rank, reqIdx := op.file, int(op.rank), op.req
	off, size := op.off, op.size
	r.sc.freeRPC(i)

	osc := r.osc[node][ost]
	switch kind {
	case rcWrite:
		osc.window.Leave()
		osc.dirty -= size
		r.wakeDirtyWaiters(osc)
		f := &r.files[file]
		f.pendingFlush -= size
		if f.pendingFlush == 0 {
			r.wakeFlushWaiters(f)
			if f.pendingClose == 0 {
				r.wakeQuiesced(f)
			}
		}
	case rcRead:
		osc.window.Leave()
		req := &r.sc.reqs[reqIdx]
		req.remaining--
		if req.remaining == 0 {
			ra := &r.files[req.file].raState[req.rank]
			if req.seq && req.end > ra.doneTo && ra.issuedTo <= req.end {
				ra.doneTo, ra.issuedTo = req.end, req.end
			}
			r.finishRead(reqIdx, false)
		}
	case rcRA:
		osc.window.Leave()
		r.raBudget[node] -= size
		ra := &r.files[file].raState[rank]
		if off+size > ra.doneTo {
			ra.doneTo = off + size
		}
		r.wakeRAWaiters(ra)
	case rcRAProbe:
		osc.window.Leave()
		r.raBudget[node] -= size
	}
}

// finishRead retires an application read: free the request slot, then issue
// follow-on readahead (whose rng draws precede the memcpy jitter, as in the
// seed's finish closure) and schedule the rank's completion.
func (r *runner) finishRead(q int32, hit bool) {
	req := &r.sc.reqs[q]
	rank, node := int(req.rank), int(req.node)
	file, end := req.file, req.end
	memcpy, seq := req.memcpy, req.seq
	r.sc.freeReq(q)
	f := &r.files[file]
	r.maybeReadahead(rank, node, file, f, end)
	r.finishOp(rank, memcpy*r.jitter(), hit, seq)
}

// raWake fires when readahead catches up to a parked read.
func (r *runner) raWake(q int32) {
	r.res.RAHits++
	r.finishRead(q, true)
}

// metaStep advances a metadata RPC one stage, replaying metaRPC's closure
// chain: window grant, request flight, optional directory-lock serial
// section, MDS service, reply flight, then release + dispatch.
func (r *runner) metaStep(i int32) {
	m := &r.sc.metas[i]
	switch m.state {
	case msEnter:
		m.state = msLock
		r.eng.AfterDelay(r.hop, m.cont)
	case msLock:
		if m.serial > 0 && m.dir >= 0 {
			m.state = msService
			r.dirLock[m.dir].Use(m.serial*r.jitter(), m.cont)
			return
		}
		r.metaService(m)
	case msService:
		r.metaService(m)
	case msReply:
		m.state = msDone
		r.eng.AfterDelay(r.hop, m.cont)
	case msDone:
		g := r.mdc[m.node]
		if m.mod {
			g = r.mdcMod[m.node]
		}
		g.Leave()
		if now := r.eng.Now(); now > r.res.LastMetaRPC {
			r.res.LastMetaRPC = now
		}
		r.completeMeta(i)
	}
}

func (r *runner) metaService(m *metaOp) {
	m.state = msReply
	service := m.service
	if r.faults != nil {
		service *= r.faults.mdsFactor(r.eng.Now())
	}
	r.mds.Use(service*r.jitter(), m.cont)
}

// completeMeta dispatches a finished metadata RPC by kind; like completeRPC
// it copies fields and frees the slot before re-entering model code.
func (r *runner) completeMeta(i int32) {
	m := &r.sc.metas[i]
	kind := m.kind
	node, file, rank := int(m.node), m.file, int(m.rank)
	r.sc.freeMeta(i)

	switch kind {
	case mcDone:
		r.opDone(rank)
	case mcInsert:
		r.metaInsert(node, file)
		r.opDone(rank)
	case mcClose:
		f := &r.files[file]
		f.pendingClose--
		if f.pendingClose == 0 && f.pendingFlush == 0 {
			r.wakeQuiesced(f)
		}
	case mcUnlink:
		f := &r.files[file]
		for n := 0; n < r.spec.ClientNodes; n++ {
			r.metaCache[n].evict(file)
			r.pageCache[n].drop(file)
		}
		f.holders = 0
		f.created = false
		r.opDone(rank)
	case mcStatahead:
		mc := &r.metaCache[node]
		r.metaInsert(node, file)
		ws := mc.inflight[file]
		delete(mc.inflight, file)
		for _, rk := range ws {
			r.eng.After(localHitTime, r.sc.ranks[rk].stat)
		}
	}
}
