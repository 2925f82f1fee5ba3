package lustre

import "stellar/internal/workload"

// ----------------------------------------------------------------------
// Client-side caches.
// ----------------------------------------------------------------------

// lru is a dense, index-linked LRU list over the file ids [0, n), which are
// dense per workload. Slot n is the sentinel: next[n] is the most recently
// used resident, prev[n] the least. in marks residency; the links of a
// non-resident slot are stale and never read, so resetting a list clears
// only in.
type lru struct {
	prev, next []int32
	in         []bool
	size       int // residents
}

// reset empties the list and sizes it for n file ids.
func (l *lru) reset(n int) {
	l.prev, l.next = grow(l.prev, n+1), grow(l.next, n+1)
	l.in = grow(l.in, n)
	clear(l.in)
	l.size = 0
	l.prev[n], l.next[n] = int32(n), int32(n)
}

// touch makes f the most recently used resident, adding it if absent.
//
//stellar:hotpath
func (l *lru) touch(f int32) {
	if l.in[f] {
		l.unlink(f)
	} else {
		l.in[f] = true
		l.size++
	}
	s := int32(len(l.in))
	h := l.next[s]
	l.prev[f], l.next[f] = s, h
	l.prev[h], l.next[s] = f, f
}

func (l *lru) remove(f int32) {
	l.in[f] = false
	l.size--
	l.unlink(f)
}

//stellar:hotpath
func (l *lru) unlink(f int32) {
	p, n := l.prev[f], l.next[f]
	l.next[p], l.prev[n] = n, p
}

// back returns the least recently used resident.
func (l *lru) back() int32 { return l.prev[len(l.in)] }

// metaCache models the per-node DLM lock / attribute cache: files present
// here can be stat'ed and opened without a server round trip. Statahead
// prefetch populates it; unlink evicts. Capacity is ldlm.lru_size entries.
type metaCache struct {
	cap      int
	lru      lru
	inflight map[int32][]int32 // statahead fetches in progress; waiting ranks
}

func (m *metaCache) reset(capacity, nfiles int) {
	m.cap = capacity
	m.lru.reset(nfiles)
	if m.inflight == nil {
		m.inflight = make(map[int32][]int32)
	}
	clear(m.inflight)
}

//stellar:hotpath
func (m *metaCache) contains(f int32) bool {
	if !m.lru.in[f] {
		return false
	}
	m.lru.touch(f)
	return true
}

func (m *metaCache) insert(f int32) {
	m.lru.touch(f)
	for m.lru.size > m.cap {
		m.lru.remove(m.lru.back())
	}
}

func (m *metaCache) evict(f int32) {
	if m.lru.in[f] {
		m.lru.remove(f)
	}
}

// pageCache tracks which files a node holds clean data for, bounded by
// llite.max_cached_mb. Sizes are approximate (whole-file granularity).
type pageCache struct {
	cap   int64
	total int64
	lru   lru
	sizes []int64 // per file; valid while resident
}

func (p *pageCache) reset(capacity int64, nfiles int) {
	p.cap, p.total = capacity, 0
	p.lru.reset(nfiles)
	p.sizes = grow(p.sizes, nfiles)
}

//stellar:hotpath
func (p *pageCache) contains(f int32) bool {
	return p.lru.in[f]
}

// touch records extra bytes cached for f and refreshes recency, evicting
// least-recently-used files beyond capacity.
func (p *pageCache) touch(f int32, addBytes int64) {
	if !p.lru.in[f] {
		p.sizes[f] = 0
	}
	p.lru.touch(f)
	p.sizes[f] += addBytes
	p.total += addBytes
	for p.total > p.cap && p.lru.size > 1 {
		id := p.lru.back()
		p.total -= p.sizes[id]
		p.lru.remove(id)
	}
}

func (p *pageCache) drop(f int32) {
	if p.lru.in[f] {
		p.total -= p.sizes[f]
		p.lru.remove(f)
	}
}

// ----------------------------------------------------------------------
// Metadata operations.
// ----------------------------------------------------------------------

// assignLayout stamps the file with the configured striping at create time.
// The starting OST is a hash of the file id: like Lustre's weighted
// allocator, placement is only statistically balanced, so file-per-process
// workloads see OST load imbalance unless files are striped wider.
func (r *runner) assignLayout(f *fileState, id int32) {
	f.created = true
	f.stripeCount = r.cfg.stripeCount
	f.stripeSize = r.cfg.stripeSize
	h := uint64(id) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	f.startOST = int(h % uint64(r.spec.OSTCount))
}

// metaRPC issues one metadata RPC through the given window gate with the
// given MDS service time, optional directory-lock serial section, and
// completion kind. The RPC advances through metaStep's stages in an arena
// slot; kind, file, and rank tell completeMeta what to do when the reply
// arrives.
func (r *runner) metaRPC(node int, gate int, dir int32, serial, service float64, kind uint8, file int32, rank int) {
	g := r.mdc[node]
	if gate == gateMod {
		g = r.mdcMod[node]
	}
	r.res.MetaRPCs++
	i := r.sc.newMeta()
	m := &r.sc.metas[i]
	m.state, m.kind = msEnter, kind
	m.mod = gate == gateMod
	m.node, m.dir, m.file, m.rank = int32(node), dir, file, int32(rank)
	m.serial, m.service = serial, service
	g.Acquire(m.cont)
}

const (
	gateStat = iota
	gateMod
)

func (r *runner) doCreate(rank int, op workload.Op) {
	node := r.node(rank)
	f := &r.files[op.File]
	r.assignLayout(f, op.File)
	f.size = 0
	for n := range f.contigTo {
		f.contigTo[n] = 0
	}
	// A create allocates fresh objects: the allocator appends, so the first
	// write to each object pays no seek.
	for o := range f.lastOff {
		f.lastOff[o] = -1
	}
	svc := r.spec.MDSCreateTime + r.spec.MDSPerStripeCost*float64(f.stripeCount-1)
	serial := svc * r.spec.DirLockSerial
	r.metaRPC(node, gateMod, op.Dir, serial, svc-serial, mcInsert, op.File, rank)
}

func (r *runner) doOpen(rank int, op workload.Op) {
	node := r.node(rank)
	mc := &r.metaCache[node]
	if mc.contains(op.File) {
		r.res.StatHits++
		r.finishOp(rank, localHitTime*r.jitter(), true, false)
		return
	}
	if ws, ok := mc.inflight[op.File]; ok {
		// Parked on the in-flight statahead fetch; the wake counts the hit.
		r.rankSt[rank].hit = true
		mc.inflight[op.File] = append(ws, int32(rank))
		return
	}
	r.metaRPC(node, gateStat, -1, 0, r.spec.MDSOpenTime, mcInsert, op.File, rank)
}

func (r *runner) doStat(rank int, op workload.Op) {
	node := r.node(rank)
	mc := &r.metaCache[node]
	r.triggerStatahead(rank, node, op)
	if mc.contains(op.File) {
		r.res.StatHits++
		r.finishOp(rank, localHitTime*r.jitter(), true, false)
		return
	}
	if ws, ok := mc.inflight[op.File]; ok {
		r.rankSt[rank].hit = true
		mc.inflight[op.File] = append(ws, int32(rank))
		return
	}
	r.metaRPC(node, gateStat, -1, 0, r.spec.MDSStatTime, mcInsert, op.File, rank)
}

// statStreak tracks consecutive in-order directory-entry stats per rank.
type statStreak struct {
	dir    int32
	last   int32
	streak int
}

// triggerStatahead detects a readdir-plus-stat pattern (in-order stats of
// entries of the same directory) and prefetches attributes and locks for
// the next llite.statahead_max entries through the non-modifying metadata
// window, populating the node's metaCache so later stats AND opens hit.
func (r *runner) triggerStatahead(rank, node int, op workload.Op) {
	if r.cfg.statahead == 0 || op.Dir < 0 {
		return
	}
	ss := &r.statStreaks[rank]
	if ss.dir == op.Dir && op.Index == ss.last+1 {
		ss.streak++
	} else if ss.dir != op.Dir || op.Index != ss.last {
		ss.streak = 1
	}
	ss.dir, ss.last = op.Dir, op.Index
	if ss.streak < 2 {
		return
	}
	entries := r.dirFiles[op.Dir]
	mc := &r.metaCache[node]
	limit := int(op.Index) + 1 + r.cfg.statahead
	if limit > len(entries) {
		limit = len(entries)
	}
	inflight := len(mc.inflight)
	for i := int(op.Index) + 1; i < limit; i++ {
		if inflight >= r.cfg.statahead {
			break
		}
		fid := entries[i]
		if mc.contains(fid) {
			continue
		}
		if _, ok := mc.inflight[fid]; ok {
			continue
		}
		mc.inflight[fid] = nil
		inflight++
		r.metaRPC(node, gateStat, -1, 0, r.spec.MDSStatTime, mcStatahead, fid, -1)
	}
}

func (r *runner) doClose(rank int, op workload.Op) {
	node := r.node(rank)
	f := &r.files[op.File]
	// Lustre sends MDS_CLOSE asynchronously: the application continues
	// immediately while the close RPC occupies the modifying-RPC window.
	f.pendingClose++
	r.metaRPC(node, gateMod, -1, 0, r.spec.MDSCloseTime, mcClose, op.File, -1)
	r.finishOp(rank, localHitTime*r.jitter(), false, false)
}

func (r *runner) doUnlink(rank int, op workload.Op) {
	// Lustre permits unlinking files with outstanding opens or dirty data;
	// object destruction happens server-side at last close.
	node := r.node(rank)
	f := &r.files[op.File]
	svc := r.spec.MDSUnlinkTime + r.spec.MDSPerStripeCost*float64(max(f.stripeCount-1, 0))
	serial := svc * r.spec.DirLockSerial
	r.metaRPC(node, gateMod, op.Dir, serial, svc-serial, mcUnlink, op.File, rank)
}

func (r *runner) doMkdir(rank int, op workload.Op) {
	node := r.node(rank)
	r.metaRPC(node, gateMod, op.Dir, 0, r.spec.MDSCreateTime, mcDone, -1, rank)
}

func (r *runner) doReaddir(rank int, op workload.Op) {
	node := r.node(rank)
	entries := len(r.dirFiles[op.Dir])
	svc := r.spec.MDSReaddirTime * float64(entries)
	if svc <= 0 {
		svc = r.spec.MDSReaddirTime
	}
	r.metaRPC(node, gateStat, -1, 0, svc, mcDone, -1, rank)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
