package workload

import "math/rand"

// This file holds the adversarial/scenario-diversity families: trace-driven
// replay of Darshan-style per-file access summaries and a multi-tenant mix
// of interfering streams with time-varying roles. Both are registered in
// the catalog, so Known/Validate/fuzzing cover them like the synthetic
// benchmark families.

// TraceFile is the per-file access summary a trace replay is generated
// from: counters in the shape Darshan reports per record. workload
// deliberately does not import darshan — the dependency runs the other way.
type TraceFile struct {
	Reads, Writes  int64 // operation counts across all trace processes
	Stats, Unlinks int64
	BytesRead      int64
	BytesWritten   int64
	SeqReads       int64 // reads continuing the previous offset
	SeqWrites      int64
	Shared         bool // accessed by more than one process in the trace
}

// TraceSpec is a whole parsed trace: the process count it was captured
// with plus one summary per file record. Replay re-casts it onto any rank
// count and scale.
type TraceSpec struct {
	Name  string
	Procs int
	Files []TraceFile
}

// Replay generates an op-stream workload reproducing the trace's per-file
// access shape: write volume, read volume, sequentiality split, sharing,
// and metadata pressure. Counts are normalised from the trace's process
// count onto ranks and scaled with the usual floor-of-one rule; offsets for
// the non-sequential fraction come from a per-file seeded rng so the
// generated stream is a pure function of (spec, ranks, scale).
func Replay(spec TraceSpec, ranks int, scale float64) *Workload {
	name := spec.Name
	if name == "" {
		name = "replay"
	}
	b := newBuilder(name, "POSIX", ranks, scale)
	dir := b.addDir()
	procs := spec.Procs
	if procs < 1 {
		procs = 1
	}

	type replayFile struct {
		id           int32
		tf           TraceFile
		writers      []int // participating ranks for writes/creates
		readers      []int // participating ranks for reads
		perW, perR   int   // scaled per-participant op counts
		wSize, rSize int64 // per-op transfer sizes
		span         int64 // written extent, bounds random read offsets
	}
	files := make([]replayFile, 0, len(spec.Files))
	all := make([]int, ranks)
	for r := range all {
		all[r] = r
	}
	perOp := func(total int64, parts int) int {
		if total <= 0 {
			return 0
		}
		per := int((total + int64(parts) - 1) / int64(parts))
		return scaleCount(per, scale)
	}
	opSize := func(bytes, ops int64) int64 {
		if ops <= 0 {
			return 0
		}
		sz := bytes / ops
		if sz < 1 {
			sz = 1
		}
		return sz
	}
	for i, tf := range spec.Files {
		rf := replayFile{id: b.addFile(dir, tf.Shared), tf: tf}
		// Counts are normalised per trace process: a shared record's total
		// divides across the trace's procs and every replay rank issues that
		// per-proc share; a private record keeps its full count on one rank.
		parts := 1
		if tf.Shared {
			rf.writers, rf.readers = all, all
			parts = procs
		} else {
			owner := []int{i % ranks}
			rf.writers, rf.readers = owner, owner
		}
		rf.perW = perOp(tf.Writes, parts)
		rf.perR = perOp(tf.Reads, parts)
		rf.wSize = opSize(tf.BytesWritten, tf.Writes)
		rf.rSize = opSize(tf.BytesRead, tf.Reads)
		rf.span = int64(len(rf.writers)) * int64(rf.perW) * rf.wSize
		files = append(files, rf)
	}

	seqSplit := func(seq, total int64, n int) int {
		if total <= 0 {
			return 0
		}
		return int(int64(n) * seq / total)
	}

	b.phase("replay-write")
	for fi, rf := range files {
		if rf.perW == 0 {
			continue
		}
		// Per-file seed derived from the file index: offsets reproduce
		// identically per file regardless of file iteration order.
		rng := rand.New(rand.NewSource(int64(fi)*7919 + 11))
		nSeq := seqSplit(rf.tf.SeqWrites, rf.tf.Writes, rf.perW)
		for wi, r := range rf.writers {
			b.op(r, Op{Type: OpCreate, File: rf.id, Dir: dir, Index: int32(fi)})
			base := int64(wi) * int64(rf.perW) * rf.wSize
			for k := 0; k < rf.perW; k++ {
				off := base + int64(k)*rf.wSize
				if k >= nSeq {
					off = rng.Int63n(int64(rf.perW)*int64(len(rf.writers))) * rf.wSize
				}
				b.op(r, Op{Type: OpWrite, File: rf.id, Offset: off, Size: rf.wSize})
			}
			b.op(r, Op{Type: OpFsync, File: rf.id})
			b.op(r, Op{Type: OpClose, File: rf.id})
		}
	}
	b.barrier()

	b.phase("replay-read")
	for fi, rf := range files {
		if rf.perR == 0 {
			continue
		}
		// Per-file seed, distinct stream from the write phase above.
		rng := rand.New(rand.NewSource(int64(fi)*7919 + 13))
		nSeq := seqSplit(rf.tf.SeqReads, rf.tf.Reads, rf.perR)
		span := rf.span
		if span < rf.rSize {
			span = rf.rSize * int64(rf.perR)
		}
		chunks := span / rf.rSize
		if chunks < 1 {
			chunks = 1
		}
		for ri, r := range rf.readers {
			b.op(r, Op{Type: OpOpen, File: rf.id, Dir: dir, Index: int32(fi)})
			base := (int64(ri) * int64(rf.perR) * rf.rSize) % span
			for k := 0; k < rf.perR; k++ {
				off := (base + int64(k)*rf.rSize) % span
				if k >= nSeq {
					off = rng.Int63n(chunks) * rf.rSize
				}
				b.op(r, Op{Type: OpRead, File: rf.id, Offset: off, Size: rf.rSize})
			}
			b.op(r, Op{Type: OpClose, File: rf.id})
		}
	}
	b.barrier()

	b.phase("replay-meta")
	for fi, rf := range files {
		if rf.tf.Stats > 0 {
			parts := 1
			if rf.tf.Shared {
				parts = procs
			}
			per := perOp(rf.tf.Stats, parts)
			for _, r := range rf.readers {
				for k := 0; k < per; k++ {
					b.op(r, Op{Type: OpStat, File: rf.id, Dir: dir, Index: int32(fi)})
				}
			}
		}
		if rf.tf.Unlinks > 0 {
			b.op(rf.writers[0], Op{Type: OpUnlink, File: rf.id, Dir: dir, Index: int32(fi)})
		}
	}
	b.barrier()
	return b.w
}

// CanonicalTrace is the built-in trace behind the darshan-replay catalog
// family: a checkpoint-style shared sequential file, a shared random-access
// file, and a tail of per-process small files with metadata churn —
// distilled from the collector's view of the paper's IOR + MDWorkbench
// mix so the family needs no trace file on disk.
func CanonicalTrace() TraceSpec {
	spec := TraceSpec{Name: "darshan-replay", Procs: 50}
	spec.Files = append(spec.Files, TraceFile{
		Writes: 800, Reads: 800, Stats: 50,
		BytesWritten: 800 << 20, BytesRead: 800 << 20,
		SeqWrites: 800, SeqReads: 760, Shared: true,
	})
	spec.Files = append(spec.Files, TraceFile{
		Writes: 600, Reads: 600,
		BytesWritten: 600 << 16, BytesRead: 600 << 16,
		SeqWrites: 60, SeqReads: 60, Shared: true,
	})
	for i := 0; i < 20; i++ {
		spec.Files = append(spec.Files, TraceFile{
			Writes: 30, Reads: 30, Stats: 60, Unlinks: 1,
			BytesWritten: 30 << 13, BytesRead: 30 << 13,
			SeqWrites: 30, SeqReads: 30,
		})
	}
	return spec
}

// DarshanReplay is the catalog generator replaying CanonicalTrace.
func DarshanReplay(ranks int, scale float64) *Workload {
	return Replay(CanonicalTrace(), ranks, scale)
}

// Multitenant models interfering tenants sharing one cluster: ranks are
// partitioned into up to three tenants whose roles rotate each phase —
// streaming checkpoint writer, random small-I/O scanner, metadata churner —
// so every tenant experiences every kind of neighbour over the run's
// time-varying phases.
func Multitenant(ranks int, scale float64) *Workload {
	b := newBuilder("multitenant", "POSIX", ranks, scale)
	// Fixed-seed generator: tenant role rotation is part of the workload's
	// identity, not a randomized experiment factor.
	rng := rand.New(rand.NewSource(17))
	tenants := 3
	if tenants > ranks {
		tenants = ranks
	}
	members := make([][]int, tenants)
	for r := 0; r < ranks; r++ {
		t := r % tenants
		members[t] = append(members[t], r)
	}
	rootDir := b.addDir()
	churnDirs := make([]int32, tenants)
	for t := range churnDirs {
		churnDirs[t] = b.addDir()
	}

	const phases = 3
	streamPerRank := scaleCount(64, scale) // 1 MiB stream writes
	scanOps := scaleCount(96, scale)       // 64 KiB random reads/writes
	churnFiles := scaleCount(24, scale)    // create/stat/close/unlink cycles
	const streamSize = 1 << 20
	const scanSize = 64 << 10

	for p := 0; p < phases; p++ {
		b.phase(phaseNames[p])
		for t := 0; t < tenants; t++ {
			role := (t + p) % 3
			ranksOf := members[t]
			switch role {
			case 0: // streaming writer: shared checkpoint file, sequential
				f := b.addFile(rootDir, len(ranksOf) > 1)
				for _, r := range ranksOf {
					b.op(r, Op{Type: OpCreate, File: f, Dir: rootDir})
				}
				for i, r := range ranksOf {
					base := int64(i) * int64(streamPerRank) * streamSize
					for k := 0; k < streamPerRank; k++ {
						b.op(r, Op{Type: OpWrite, File: f,
							Offset: base + int64(k)*streamSize, Size: streamSize})
					}
				}
				for _, r := range ranksOf {
					b.op(r, Op{Type: OpFsync, File: f})
					b.op(r, Op{Type: OpClose, File: f})
				}
			case 1: // random scanner: shared scratch file, mixed read/write
				f := b.addFile(rootDir, len(ranksOf) > 1)
				span := int64(scanOps) * int64(len(ranksOf))
				for _, r := range ranksOf {
					b.op(r, Op{Type: OpCreate, File: f, Dir: rootDir})
					for k := 0; k < scanOps; k++ {
						off := rng.Int63n(span) * scanSize
						typ := OpWrite
						if k%2 == 1 {
							typ = OpRead
						}
						b.op(r, Op{Type: typ, File: f, Offset: off, Size: scanSize})
					}
					b.op(r, Op{Type: OpClose, File: f})
				}
			case 2: // metadata churner: per-rank file cycles in a tenant dir
				d := churnDirs[t]
				for _, r := range ranksOf {
					for k := 0; k < churnFiles; k++ {
						f := b.addFile(d, false)
						b.op(r, Op{Type: OpCreate, File: f, Dir: d, Index: int32(k)})
						b.op(r, Op{Type: OpWrite, File: f, Offset: 0, Size: 4 << 10})
						b.op(r, Op{Type: OpClose, File: f})
						b.op(r, Op{Type: OpStat, File: f, Dir: d, Index: int32(k)})
						b.op(r, Op{Type: OpUnlink, File: f, Dir: d, Index: int32(k)})
					}
					b.op(r, Op{Type: OpReaddir, Dir: d})
				}
			}
		}
		b.barrier()
	}
	return b.w
}

// phaseNames labels the multitenant role rotations for reporting.
var phaseNames = [...]string{"mix-0", "mix-1", "mix-2"}
