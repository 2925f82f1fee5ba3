package lustre

import (
	"context"
	"math/rand"

	"stellar/internal/cluster"
	"stellar/internal/sim"
	"stellar/internal/workload"
)

// memcpyBW models client-side page copies (bytes/second).
const memcpyBW = 8e9

// localHitTime is the cost of a metadata operation fully served by the
// client lock/attribute cache.
const localHitTime = 4e-6

// noiseAmp is the multiplicative jitter applied to every service time;
// different seeds produce run-to-run variance of a few percent, mirroring
// the paper's 8-repetition averaging protocol.
const noiseAmp = 0.04

type runner struct {
	eng  *sim.Engine
	sc   *scratch
	spec cluster.Spec
	cfg  cfgValues
	w    *workload.Workload
	rng  *rand.Rand
	sink TraceSink

	// faults is the compiled fault schedule, nil on clean runs so the
	// zero-fault hot path (and its rng draw order) is untouched.
	faults *faultState

	// hop (a one-way network flight, NetworkRTT/2) and think (the
	// workload's ComputePerOp) are the run's constant delays, scheduled
	// through the engine's fixed-delay FIFOs instead of its heap.
	hop, think sim.Delay

	nodeNIC    []*sim.Pipe
	ostNIC     []*sim.Pipe
	ostThreads []*sim.Resource // seek/setup stage (NCQ-style overlap)
	ostBW      []*sim.Pipe     // serialized media bandwidth
	mds        *sim.Resource
	dirLock    []*sim.Resource

	osc    [][]*oscState // [node][ost]
	mdc    []*sim.Gate   // per node, non-modifying metadata window
	mdcMod []*sim.Gate   // per node, modifying metadata window

	barrierCount int

	// tables is a copy of the scratch's tables, reset for this run and
	// handed back when it ends, so growth carries over to the next run.
	tables

	res Result
}

// tables holds a run's per-file, per-node and per-rank state. It lives in
// the pooled scratch and is reset in place for each run, growing only when
// a run needs more than any earlier one. Nothing in a Result aliases it.
type tables struct {
	metaCache []metaCache // per node lock/attribute cache
	pageCache []pageCache // per node clean data cache
	raBudget  []int64     // per node outstanding readahead bytes

	// files' lastOff, contigTo and raState rows are sub-slices of one
	// run-wide slab each.
	files    []fileState
	lastOff  []int64   // files × OSTs
	contigTo []int64   // files × nodes
	raState  []raState // files × ranks

	dirFiles [][]int32 // directory -> files in entry order, rows of dirEnts
	dirEnts  []int32
	dirStart []int32 // dirFiles row bounds in dirEnts

	// rankSt tracks each rank's position in its op program plus the
	// in-flight op's bookkeeping. Ranks execute ops strictly sequentially,
	// so one slot per rank suffices.
	rankSt []rankState

	statStreaks []statStreak // per rank

	barrierWaitQ []int32   // ranks parked at the current barrier
	barrierTimes []float64 // copied into the Result when the run ends

	chunks []chunk // stripeChunks scratch
}

// rankState is one rank's program counter and current-op scratch.
type rankState struct {
	i     int     // index of the op in flight (-1 before the first)
	start float64 // op start time for the trace event
	hit   bool    // CacheHit flag for the trace event
	seq   bool    // Sequential flag for the trace event
	wOff  int64   // write admission cursor: next byte to admit
	wRem  int64   // write admission cursor: bytes left to admit
}

type fileState struct {
	stripeCount int
	stripeSize  int64
	startOST    int
	created     bool
	size        int64 // high-water mark of written bytes

	pendingFlush int64   // bytes queued for write-back, not yet on disk
	pendingClose int     // asynchronous close RPCs in flight
	flushWaiters []int32 // ranks in fsync waiting for pendingFlush == 0
	quietWaiters []int32 // ranks waiting for flush and close completion

	// holders is a superset bitset of the nodes whose metaCache may hold
	// this file's attributes (valid while ClientNodes <= 64). LRU eviction
	// never clears bits, so a set bit can be stale — evicting a non-holder
	// is a no-op — but a real holder is never skipped, which keeps the
	// write-invalidation broadcast behavior-identical while making the
	// common single-writer case O(1) instead of O(nodes).
	holders uint64

	lastOff  []int64 // per OST object: last accessed offset (seek model)
	contigTo []int64 // per node: contiguous-from-zero written bytes (page cache)
	raState  []raState
}

type raState struct {
	lastEnd  int64
	streak   int
	issuedTo int64
	doneTo   int64
	waiters  []raWaiter
}

// raWaiter parks a read request until readahead reaches need.
type raWaiter struct {
	need int64
	req  int32 // readReq arena slot
}

// oscState models one object storage client (per client node, per OST).
// Staged write-back groups live by value in a FIFO ring: the OSC window
// grants admissions in Enter order, which is staging order, so the granted
// group is always the ring head — removal is an O(1) pop instead of the
// seed's linear identity scan, and no *rpcGroup pointers escape.
type oscState struct {
	window       *sim.Gate
	dirty        int64
	groups       fifo[rpcGroup]
	dirtyWaiters fifo[int32] // ranks blocked in write admission
}

// rpcGroup is a coalesced write-back RPC being staged.
type rpcGroup struct {
	file int32
	ost  int
	off  int64
	size int64
}

// newRunner builds a run's state over the scratch: the simulated servers
// are fresh, the tables are the scratch's, reset in place.
func newRunner(w *workload.Workload, opts Options, cv cfgValues, sc *scratch) *runner {
	eng := sc.eng
	spec := opts.Spec
	sc.rng.Seed(opts.Seed)
	r := &runner{
		eng:    eng,
		sc:     sc,
		spec:   spec,
		cfg:    cv,
		w:      w,
		rng:    sc.rng,
		sink:   opts.Trace,
		tables: sc.tables,
		hop:    eng.NewDelay(spec.NetworkRTT / 2),
		think:  eng.NewDelay(w.ComputePerOp),
	}
	if !opts.Faults.IsZero() {
		r.faults = opts.Faults.compile(spec.OSTCount)
	}
	sc.r = r
	nodes := spec.ClientNodes
	r.nodeNIC = make([]*sim.Pipe, nodes)
	r.mdc = make([]*sim.Gate, nodes)
	r.mdcMod = make([]*sim.Gate, nodes)
	r.osc = make([][]*oscState, nodes)
	for n := 0; n < nodes; n++ {
		r.nodeNIC[n] = sim.NewPipe(eng, "nic", spec.NICBandwidth)
		r.mdc[n] = sim.NewGate(eng, "mdc", cv.mdcWindow)
		r.mdcMod[n] = sim.NewGate(eng, "mdc-mod", cv.mdcModWin)
		r.osc[n] = make([]*oscState, spec.OSTCount)
		for o := 0; o < spec.OSTCount; o++ {
			r.osc[n][o] = &oscState{window: sim.NewGate(eng, "osc", cv.rpcWindow)}
		}
	}
	r.ostNIC = make([]*sim.Pipe, spec.OSTCount)
	r.ostThreads = make([]*sim.Resource, spec.OSTCount)
	r.ostBW = make([]*sim.Pipe, spec.OSTCount)
	for o := 0; o < spec.OSTCount; o++ {
		r.ostNIC[o] = sim.NewPipe(eng, "ost-nic", spec.NICBandwidth)
		r.ostThreads[o] = sim.NewResource(eng, "ost-threads", spec.OSTServiceThreads)
		r.ostBW[o] = sim.NewPipe(eng, "ost-bw", spec.DiskWriteBW)
	}
	r.mds = sim.NewResource(eng, "mds", spec.MDSServiceThreads)
	r.dirLock = make([]*sim.Resource, w.DirCount)
	for d := range r.dirLock {
		r.dirLock[d] = sim.NewResource(eng, "dir", 1)
	}
	r.tables.reset(w, nodes, spec.OSTCount, cv)
	return r
}

// reset sizes the tables for w on nodes client nodes and osts OSTs and
// sets them to a fresh run's state.
func (t *tables) reset(w *workload.Workload, nodes, osts int, cv cfgValues) {
	nfiles, nranks := len(w.Files), w.NumRanks()
	t.files = grow(t.files, nfiles)
	t.lastOff = grow(t.lastOff, nfiles*osts)
	t.contigTo = grow(t.contigTo, nfiles*nodes)
	t.raState = grow(t.raState, nfiles*nranks)
	for i := range t.lastOff {
		t.lastOff[i] = -1
	}
	clear(t.contigTo)
	clear(t.raState)
	for i := range t.files {
		t.files[i] = fileState{
			lastOff:  t.lastOff[i*osts : (i+1)*osts : (i+1)*osts],
			contigTo: t.contigTo[i*nodes : (i+1)*nodes : (i+1)*nodes],
			raState:  t.raState[i*nranks : (i+1)*nranks : (i+1)*nranks],
		}
	}

	t.metaCache = grow(t.metaCache, nodes)
	t.pageCache = grow(t.pageCache, nodes)
	t.raBudget = grow(t.raBudget, nodes)
	clear(t.raBudget)
	for n := 0; n < nodes; n++ {
		t.metaCache[n].reset(cv.lruSize, nfiles)
		t.pageCache[n].reset(cv.cachedBytes, nfiles)
	}

	t.rankSt = grow(t.rankSt, nranks)
	t.statStreaks = grow(t.statStreaks, nranks)
	for i := range t.rankSt {
		t.rankSt[i] = rankState{i: -1}
		t.statStreaks[i] = statStreak{dir: -1, last: -2}
	}
	t.barrierWaitQ = t.barrierWaitQ[:0]
	t.barrierTimes = t.barrierTimes[:0]

	// Directory entries in file order, laid out by a counting sort: each
	// directory's row is an empty window of dirEnts with exactly its
	// capacity, so the appends below never reallocate.
	t.dirStart = grow(t.dirStart, w.DirCount+1)
	clear(t.dirStart)
	for _, fm := range w.Files {
		t.dirStart[fm.Dir+1]++
	}
	for d := 1; d <= w.DirCount; d++ {
		t.dirStart[d] += t.dirStart[d-1]
	}
	t.dirEnts = grow(t.dirEnts, nfiles)
	t.dirFiles = grow(t.dirFiles, w.DirCount)
	for d := range t.dirFiles {
		lo, hi := t.dirStart[d], t.dirStart[d+1]
		t.dirFiles[d] = t.dirEnts[lo:lo:hi]
	}
	for fi, fm := range w.Files {
		t.dirFiles[fm.Dir] = append(t.dirFiles[fm.Dir], int32(fi))
	}
}

// grow returns s resliced to length n, reallocating only when its capacity
// is short. The contents are stale: callers reset what they use.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (r *runner) node(rank int) int { return rank / r.spec.ProcsPerNode }

// jitter returns a small multiplicative noise factor.
func (r *runner) jitter() float64 {
	return 1 + noiseAmp*(r.rng.Float64()*2-1)
}

func (r *runner) run(ctx context.Context) (*Result, error) {
	for rank := range r.w.Ranks {
		// rankSt[rank].i starts at -1, so the next continuation advances it
		// to op 0 — the same first step the seed scheduled directly.
		r.eng.At(0, r.sc.ranks[rank].next)
	}
	wall, err := r.eng.RunContext(ctx, sim.DefaultCheckEvery)
	r.sc.tables = r.tables
	if err != nil {
		return nil, err
	}
	// Copy the result out: a pointer into the runner would keep the
	// scratch alive in every cache that holds the Result.
	res := new(Result)
	*res = r.res
	res.WallTime = wall
	res.BarrierTimes = append([]float64(nil), r.barrierTimes...)
	return res, nil
}

// step executes the op rankSt[rank].i currently points at.
func (r *runner) step(rank int) {
	ops := r.w.Ranks[rank]
	rs := &r.rankSt[rank]
	if rs.i >= len(ops) {
		return
	}
	op := ops[rs.i]
	rs.start = r.eng.Now()
	rs.hit, rs.seq = false, false
	switch op.Type {
	case workload.OpWrite:
		r.doWrite(rank, op)
	case workload.OpRead:
		r.doRead(rank, op)
	case workload.OpCreate:
		r.doCreate(rank, op)
	case workload.OpOpen:
		r.doOpen(rank, op)
	case workload.OpClose:
		r.doClose(rank, op)
	case workload.OpStat:
		r.doStat(rank, op)
	case workload.OpUnlink:
		r.doUnlink(rank, op)
	case workload.OpMkdir:
		r.doMkdir(rank, op)
	case workload.OpReaddir:
		r.doReaddir(rank, op)
	case workload.OpFsync:
		r.doFsync(rank, op)
	case workload.OpBarrier:
		r.doBarrier(rank)
	default:
		r.opDone(rank)
	}
}

// opDone completes the rank's in-flight op: emit its trace event and
// schedule the next op after the think time. This is the seed's per-op
// `done` closure, shared across all ops of a rank.
func (r *runner) opDone(rank int) {
	rs := &r.rankSt[rank]
	if r.sink != nil {
		op := r.w.Ranks[rank][rs.i]
		r.sink.Record(Event{
			Rank: rank, Op: op.Type, File: op.File, Offset: op.Offset,
			Size: op.Size, Start: rs.start, End: r.eng.Now(),
			CacheHit: rs.hit, Sequential: rs.seq,
		})
	}
	r.eng.AfterDelay(r.think, r.sc.ranks[rank].next)
}

// nextOp advances the rank's program counter and runs the next op.
func (r *runner) nextOp(rank int) {
	r.rankSt[rank].i++
	r.step(rank)
}

// finishOp stamps the op's outcome flags and schedules its completion.
func (r *runner) finishOp(rank int, delay float64, hit, seq bool) {
	rs := &r.rankSt[rank]
	rs.hit, rs.seq = hit, seq
	r.eng.After(delay, r.sc.ranks[rank].done)
}

// statWake completes an op that was parked on a statahead fetch.
func (r *runner) statWake(rank int) {
	r.res.StatHits++
	r.opDone(rank)
}

func (r *runner) doBarrier(rank int) {
	r.barrierCount++
	r.barrierWaitQ = append(r.barrierWaitQ, int32(rank))
	if r.barrierCount == r.w.NumRanks() {
		r.barrierTimes = append(r.barrierTimes, r.eng.Now())
		q := r.barrierWaitQ
		r.barrierWaitQ = q[:0]
		r.barrierCount = 0
		for _, rk := range q {
			r.eng.After(0, r.sc.ranks[rk].done)
		}
	}
}
