package lustre

import (
	"math/bits"

	"stellar/internal/workload"
)

// chunk is a stripe-aligned piece of an application data request.
type chunk struct {
	ost  int
	off  int64
	size int64
}

// chunkAt returns the stripe-aligned chunk starting at off, capped at rem
// remaining bytes.
//
//stellar:hotpath
func (r *runner) chunkAt(f *fileState, off, rem int64) chunk {
	stripe := off / f.stripeSize
	within := off % f.stripeSize
	n := f.stripeSize - within
	if n > rem {
		n = rem
	}
	ost := (f.startOST + int(stripe)%f.stripeCount) % r.spec.OSTCount
	return chunk{ost: ost, off: off, size: n}
}

// stripeChunks splits the byte range [off, off+size) of file f at stripe
// boundaries and assigns each piece its OST. The returned slice is the
// runner's scratch: valid until the next stripeChunks call, which is safe
// because every caller issues all of a split's RPCs within one event.
//
//stellar:hotpath
func (r *runner) stripeChunks(f *fileState, off, size int64) []chunk {
	out := r.chunks[:0]
	for size > 0 {
		c := r.chunkAt(f, off, size)
		out = append(out, c)
		off += c.size
		size -= c.size
	}
	r.chunks = out
	return out
}

// setupService computes the per-RPC setup time spent in an OST service
// thread: request handling, seek positioning, and checksum CPU. Setup of
// concurrent RPCs overlaps (NCQ-style), which is why deeper client RPC
// windows raise random-I/O throughput.
//
//stellar:hotpath
func (r *runner) setupService(f *fileState, c chunk) float64 {
	svc := r.spec.RPCServiceFloor
	if c.size <= r.cfg.shortIO {
		// Inline (short) I/O skips the bulk transfer setup.
		svc *= 0.35
	}
	last := f.lastOff[c.ost]
	if last >= 0 && last != c.off {
		svc += r.spec.DiskSeekTime
	}
	if r.cfg.checksums {
		svc += float64(c.size) * r.spec.ChecksumPerByte
	}
	f.lastOff[c.ost] = c.off + c.size
	return svc * r.jitter()
}

// mediaTime is the serialized media transfer time for an RPC's payload.
//
//stellar:hotpath
func (r *runner) mediaTime(size int64, write bool) float64 {
	bw := r.spec.DiskReadBW
	if write {
		bw = r.spec.DiskWriteBW
	}
	return float64(size) / bw * r.jitter()
}

// ----------------------------------------------------------------------
// Write path: dirty page cache with asynchronous write-back.
// ----------------------------------------------------------------------

func (r *runner) doWrite(rank int, op workload.Op) {
	node := r.node(rank)
	f := &r.files[op.File]
	if !f.created {
		// Writing through an unopened file is a workload bug in real life;
		// adopt the file with current layout to stay robust.
		r.assignLayout(f, op.File)
	}
	if end := op.Offset + op.Size; end > f.size {
		f.size = end
	}
	// Page-cache bookkeeping for later read-back by this node.
	if op.Offset == f.contigTo[node] {
		f.contigTo[node] = op.Offset + op.Size
		r.pageCache[node].touch(op.File, op.Size)
	}
	// A size-changing write invalidates cached attributes on OTHER nodes;
	// the writer holds the lock and serves its own stats locally.
	r.evictOthers(f, op.File, node)
	r.metaInsert(node, op.File)
	rs := &r.rankSt[rank]
	rs.seq = op.Offset == f.raState[rank].lastEnd
	f.raState[rank].lastEnd = op.Offset + op.Size

	r.res.BytesWritten += op.Size
	rs.wOff, rs.wRem = op.Offset, op.Size

	// Admit chunks into the dirty cache one at a time, blocking when the
	// OSC is over its dirty limit (write throttling).
	r.admitWrite(rank)
}

// evictOthers invalidates the file's cached attributes on every node except
// the writer. The holders bitset narrows the broadcast to nodes that may
// actually hold an entry; clusters wider than 64 nodes fall back to the
// full sweep.
func (r *runner) evictOthers(f *fileState, file int32, node int) {
	if r.spec.ClientNodes <= 64 {
		m := f.holders &^ (1 << uint(node))
		for m != 0 {
			n := bits.TrailingZeros64(m)
			m &= m - 1
			r.metaCache[n].evict(file)
		}
		f.holders &= 1 << uint(node)
		return
	}
	for n := 0; n < r.spec.ClientNodes; n++ {
		if n != node {
			r.metaCache[n].evict(file)
		}
	}
}

// metaInsert adds the file to a node's attribute cache and records the node
// as a (possible) holder.
func (r *runner) metaInsert(node int, file int32) {
	r.metaCache[node].insert(file)
	if r.spec.ClientNodes <= 64 {
		r.files[file].holders |= 1 << uint(node)
	}
}

// admitWrite is the write admission loop: stage stripe chunks of the
// in-flight write until the OSC dirty limit blocks, then park the rank on
// the OSC's waiter queue. It resumes here — re-deriving the same chunk from
// the (wOff, wRem) cursor — when write-back frees dirty budget.
func (r *runner) admitWrite(rank int) {
	rs := &r.rankSt[rank]
	op := r.w.Ranks[rank][rs.i]
	node := r.node(rank)
	f := &r.files[op.File]
	for rs.wRem > 0 {
		c := r.chunkAt(f, rs.wOff, rs.wRem)
		osc := r.osc[node][c.ost]
		if osc.dirty >= r.cfg.dirtyBytes {
			osc.dirtyWaiters.push(int32(rank))
			return
		}
		osc.dirty += c.size
		f.pendingFlush += c.size
		r.stageChunk(node, op.File, c)
		rs.wOff += c.size
		rs.wRem -= c.size
	}
	memcpy := float64(op.Size) / memcpyBW
	r.finishOp(rank, memcpy*r.jitter(), false, rs.seq)
}

// stageChunk adds a write-back chunk to the OSC staging ring, coalescing
// with the newest group when contiguous, and queues the group's admission
// into the RPC window. A staged group keeps growing until its window grant
// fires (rpcStep's rsAdmitWrite pops it).
func (r *runner) stageChunk(node int, file int32, c chunk) {
	osc := r.osc[node][c.ost]
	if g := osc.groups.tail(); g != nil && g.file == file && g.ost == c.ost &&
		g.off+g.size == c.off && g.size+c.size <= r.cfg.rpcBytes {
		g.size += c.size
		return
	}
	osc.groups.push(rpcGroup{file: file, ost: c.ost, off: c.off, size: c.size})
	i := r.sc.newRPC()
	o := &r.sc.rpcs[i]
	o.state, o.kind, o.write = rsAdmitWrite, rcWrite, true
	o.node, o.ost = int32(node), int32(c.ost)
	osc.window.Enter(o.cont)
}

func (r *runner) wakeDirtyWaiters(osc *oscState) {
	for osc.dirtyWaiters.len() > 0 && osc.dirty < r.cfg.dirtyBytes {
		rank := osc.dirtyWaiters.pop()
		r.eng.After(0, r.sc.ranks[rank].admit)
	}
}

// wakeFlushWaiters releases every rank parked in fsync on f, reusing the
// waiter slice's backing array.
func (r *runner) wakeFlushWaiters(f *fileState) {
	ws := f.flushWaiters
	f.flushWaiters = ws[:0]
	for _, rk := range ws {
		r.eng.After(0, r.sc.ranks[rk].done)
	}
}

func (r *runner) wakeQuiesced(f *fileState) {
	ws := f.quietWaiters
	f.quietWaiters = ws[:0]
	for _, rk := range ws {
		r.eng.After(0, r.sc.ranks[rk].done)
	}
}

func (r *runner) doFsync(rank int, op workload.Op) {
	f := &r.files[op.File]
	if f.pendingFlush == 0 {
		r.opDone(rank)
		return
	}
	f.flushWaiters = append(f.flushWaiters, int32(rank))
}

// ----------------------------------------------------------------------
// Read path: page cache, readahead, synchronous fetch.
// ----------------------------------------------------------------------

func (r *runner) doRead(rank int, op workload.Op) {
	node := r.node(rank)
	f := &r.files[op.File]
	if !f.created {
		r.assignLayout(f, op.File)
	}
	r.res.BytesRead += op.Size
	ra := &f.raState[rank]
	seq := op.Offset == ra.lastEnd
	if seq {
		ra.streak++
	} else {
		ra.streak = 1
		// A new random position abandons any readahead issued beyond it.
		if ra.issuedTo > ra.doneTo {
			r.res.RAWasted += ra.issuedTo - ra.doneTo
		}
		ra.issuedTo, ra.doneTo = 0, 0
	}
	ra.lastEnd = op.Offset + op.Size
	end := op.Offset + op.Size
	memcpy := float64(op.Size) / memcpyBW

	// Client page cache: valid when this node wrote the file contiguously
	// from offset zero past the requested range. No readahead activity is
	// triggered for cache-resident data.
	if end <= f.contigTo[node] && r.pageCache[node].contains(op.File) {
		r.pageCache[node].touch(op.File, 0)
		r.res.CacheHits++
		r.finishOp(rank, memcpy*r.jitter(), true, seq)
		return
	}
	// Served entirely by completed readahead?
	if seq && end <= ra.doneTo {
		r.res.RAHits++
		r.maybeReadahead(rank, node, op.File, f, end)
		r.finishOp(rank, memcpy*r.jitter(), true, seq)
		return
	}
	// Covered by in-flight readahead: park the read until it lands.
	if seq && end <= ra.issuedTo {
		q := r.sc.newReq()
		req := &r.sc.reqs[q]
		req.rank, req.node, req.file = int32(rank), int32(node), op.File
		req.end, req.memcpy, req.seq = end, memcpy, seq
		ra.waiters = append(ra.waiters, raWaiter{need: end, req: q})
		return
	}
	// Synchronous fetch of the uncovered chunks.
	q := r.sc.newReq()
	req := &r.sc.reqs[q]
	req.rank, req.node, req.file = int32(rank), int32(node), op.File
	req.end, req.memcpy, req.seq = end, memcpy, seq
	chunks := r.stripeChunks(f, op.Offset, op.Size)
	req.remaining = int32(len(chunks))
	for _, c := range chunks {
		i := r.sc.newRPC()
		o := &r.sc.rpcs[i]
		o.state, o.kind = rsAdmitRead, rcRead
		o.node, o.ost, o.file = int32(node), int32(c.ost), op.File
		o.off, o.size, o.req = c.off, c.size, q
		r.osc[node][c.ost].window.Enter(o.cont)
	}
}

// maybeReadahead issues asynchronous prefetch after a sequential streak, up
// to the per-file window and the node's global budget. It also models the
// cost of misguided readahead on random access patterns.
func (r *runner) maybeReadahead(rank, node int, file int32, f *fileState, pos int64) {
	ra := &f.raState[rank]
	if r.cfg.raFileBytes == 0 {
		return
	}
	if ra.streak < 2 {
		// Lustre's detection occasionally misfires on random access and
		// fetches pages that will be discarded.
		if ra.streak == 1 && r.rng.Float64() < 0.25 {
			waste := int64(256 << 10)
			if waste > r.cfg.raFileBytes {
				waste = r.cfg.raFileBytes
			}
			if r.raBudget[node]+waste <= r.cfg.raBytes {
				r.raBudget[node] += waste
				r.res.RAWasted += waste
				ost := (f.startOST + r.rng.Intn(f.stripeCount)) % r.spec.OSTCount
				i := r.sc.newRPC()
				o := &r.sc.rpcs[i]
				o.state, o.kind = rsAdmitRead, rcRAProbe
				o.node, o.ost, o.file = int32(node), int32(ost), file
				o.off, o.size = pos, waste
				r.osc[node][ost].window.Enter(o.cont)
			}
		}
		return
	}
	if ra.issuedTo < pos {
		ra.issuedTo = pos
	}
	if ra.doneTo < pos {
		ra.doneTo = pos
	}
	// Lustre grows the readahead window as sequentiality persists rather
	// than issuing the full per-file window at once; this bounds wasted
	// prefetch when a stream ends.
	window := int64(ra.streak) << 20
	if window > r.cfg.raFileBytes {
		window = r.cfg.raFileBytes
	}
	target := pos + window
	if target > f.size {
		target = f.size
	}
	for ra.issuedTo < target {
		n := r.cfg.rpcBytes
		if ra.issuedTo+n > target {
			n = target - ra.issuedTo
		}
		if r.raBudget[node]+n > r.cfg.raBytes {
			return // global budget exhausted
		}
		start := ra.issuedTo
		ra.issuedTo += n
		r.raBudget[node] += n
		for _, c := range r.stripeChunks(f, start, n) {
			i := r.sc.newRPC()
			o := &r.sc.rpcs[i]
			o.state, o.kind = rsAdmitRead, rcRA
			o.node, o.ost, o.file, o.rank = int32(node), int32(c.ost), file, int32(rank)
			o.off, o.size = c.off, c.size
			r.osc[node][c.ost].window.Enter(o.cont)
		}
	}
}

// wakeRAWaiters releases every parked read whose range completed, compacting
// the waiter slice in place over its existing backing array.
func (r *runner) wakeRAWaiters(ra *raState) {
	keep := ra.waiters[:0]
	for _, w := range ra.waiters {
		if w.need <= ra.doneTo {
			r.eng.After(0, r.sc.reqs[w.req].cont)
		} else {
			keep = append(keep, w)
		}
	}
	ra.waiters = keep
}
