// Package workload generates the per-rank I/O operation streams for the
// benchmarks and applications the paper evaluates: IOR (random-small and
// sequential-large), MDWorkbench (2 KiB and 8 KiB files), IO500 (four
// phases), an AMReX plotfile I/O kernel, and MACSio (512 KiB and 16 MiB
// objects).
//
// Workload sizes default to a documented fraction of the paper's full-scale
// runs so a complete tuning experiment stays fast; Scale(1.0) restores the
// paper's sizes.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// OpType enumerates the primitive operations a rank can issue.
type OpType int

const (
	OpWrite OpType = iota
	OpRead
	OpCreate  // create and open a new file
	OpOpen    // open an existing file
	OpClose   // close (releases write-back obligations for the file)
	OpStat    // getattr
	OpUnlink  // remove
	OpMkdir   // create a directory
	OpReaddir // list a directory
	OpBarrier // synchronise all ranks (MPI_Barrier)
	OpFsync   // flush and wait for all dirty data of the file
)

var opNames = [...]string{
	"write", "read", "create", "open", "close", "stat", "unlink",
	"mkdir", "readdir", "barrier", "fsync",
}

func (t OpType) String() string {
	if int(t) < len(opNames) {
		return opNames[t]
	}
	return fmt.Sprintf("op(%d)", int(t))
}

// Op is one operation in a rank's stream.
type Op struct {
	Type   OpType
	File   int32 // file table index (data and most metadata ops)
	Dir    int32 // directory table index (mkdir/readdir and file placement)
	Offset int64 // byte offset for data ops
	Size   int64 // byte count for data ops
	Index  int32 // entry index within the directory (drives statahead)
}

// FileMeta describes one file in the workload's file table.
type FileMeta struct {
	Dir    int32 // directory the file lives in
	Shared bool  // accessed by more than one rank
}

// Phase names a contiguous region of the op streams for reporting (IO500).
type Phase struct {
	Name  string
	Start int // first op index (in every rank's stream) belonging to the phase
}

// Workload is a complete multi-rank I/O job description.
type Workload struct {
	Name      string
	Interface string // "POSIX" or "MPI-IO" (Darshan module attribution)
	Ranks     [][]Op // one op stream per rank
	Files     []FileMeta
	DirCount  int
	Phases    []Phase
	// ComputePerOp is think time between consecutive ops of a rank,
	// modelling the (tiny) application-side cost per call.
	ComputePerOp float64
	// Scale records the applied scale factor for documentation.
	Scale float64

	// digest is the content digest Catalog sealed the workload with, and
	// sealed the workload it belongs to: a struct copy inherits both, but
	// its sealed pointer names the original, so Digest ignores it.
	digest [32]byte
	sealed *Workload
}

// NumRanks returns the number of MPI processes.
func (w *Workload) NumRanks() int { return len(w.Ranks) }

// TotalOps returns the op count across all ranks.
func (w *Workload) TotalOps() int {
	n := 0
	for _, r := range w.Ranks {
		n += len(r)
	}
	return n
}

// TotalBytes sums data op sizes by direction.
func (w *Workload) TotalBytes() (read, written int64) {
	for _, r := range w.Ranks {
		for _, op := range r {
			switch op.Type {
			case OpRead:
				read += op.Size
			case OpWrite:
				written += op.Size
			}
		}
	}
	return read, written
}

// Validate performs structural checks used by tests and the runner.
func (w *Workload) Validate() error {
	if len(w.Ranks) == 0 {
		return fmt.Errorf("workload %s: no ranks", w.Name)
	}
	// An empty op stream set makes every measured wall time vacuous: a
	// degenerate scale that rounded all counts to zero must surface as an
	// error here, not as a meaningless 0-second measurement downstream.
	if w.TotalOps() == 0 {
		return fmt.Errorf("workload %s: empty op streams (scale %g left no operations)", w.Name, w.Scale)
	}
	// Written so NaN fails it: a NaN or negative think time would pass
	// and then panic in the simulator's scheduler mid-run.
	if !(w.ComputePerOp >= 0 && w.ComputePerOp <= math.MaxFloat64) {
		return fmt.Errorf("workload %s: ComputePerOp must be finite and non-negative, got %g", w.Name, w.ComputePerOp)
	}
	for ri, ops := range w.Ranks {
		for oi, op := range ops {
			switch op.Type {
			case OpWrite, OpRead, OpCreate, OpOpen, OpClose, OpStat, OpUnlink, OpFsync:
				if int(op.File) < 0 || int(op.File) >= len(w.Files) {
					return fmt.Errorf("workload %s: rank %d op %d: file %d out of table (size %d)",
						w.Name, ri, oi, op.File, len(w.Files))
				}
			case OpMkdir, OpReaddir:
				if int(op.Dir) < 0 || int(op.Dir) >= w.DirCount {
					return fmt.Errorf("workload %s: rank %d op %d: dir %d out of range", w.Name, ri, oi, op.Dir)
				}
			}
			if (op.Type == OpWrite || op.Type == OpRead) && op.Size <= 0 {
				return fmt.Errorf("workload %s: rank %d op %d: non-positive size", w.Name, ri, oi)
			}
		}
	}
	return nil
}

// builder collects ops while assembling a workload.
type builder struct {
	w *Workload
}

func newBuilder(name, iface string, ranks int, scale float64) *builder {
	w := &Workload{
		Name:         name,
		Interface:    iface,
		Ranks:        make([][]Op, ranks),
		ComputePerOp: 2e-6,
		Scale:        scale,
	}
	return &builder{w: w}
}

func (b *builder) addFile(dir int32, shared bool) int32 {
	b.w.Files = append(b.w.Files, FileMeta{Dir: dir, Shared: shared})
	return int32(len(b.w.Files) - 1)
}

func (b *builder) addDir() int32 {
	b.w.DirCount++
	return int32(b.w.DirCount - 1)
}

func (b *builder) op(rank int, op Op) { b.w.Ranks[rank] = append(b.w.Ranks[rank], op) }

func (b *builder) barrier() {
	for r := range b.w.Ranks {
		b.w.Ranks[r] = append(b.w.Ranks[r], Op{Type: OpBarrier})
	}
}

func (b *builder) phase(name string) {
	start := 0
	if len(b.w.Ranks) > 0 {
		start = len(b.w.Ranks[0])
	}
	b.w.Phases = append(b.w.Phases, Phase{Name: name, Start: start})
}

// scaleCount applies the workload scale to a repetition count with a floor
// of one: every generator loop must execute at least once, or a tiny scale
// (0.001 of the paper's sizes) would silently emit near-empty op streams
// that Validate then rejects.
func scaleCount(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// shuffled returns 0..n-1 in a seeded random order.
func shuffled(n int, rng *rand.Rand) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}
