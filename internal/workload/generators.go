package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// ErrUnknown marks Catalog failures for names outside the workload catalog,
// so serving layers can distinguish a bad request from an execution error.
var ErrUnknown = errors.New("unknown workload")

// Scale is the default fraction of the paper's full workload sizes used by
// the experiment harness. The op mix, access patterns, sharing, and file
// sizes are unchanged; only repetition counts shrink. DESIGN.md documents
// this substitution.
const DefaultScale = 0.25

// IORSpec parametrises an IOR run (shared-file mode, as in the paper).
type IORSpec struct {
	Ranks        int
	TransferSize int64 // bytes per write/read call
	BlockSize    int64 // contiguous region per rank per block
	Blocks       int   // blocks per rank
	Random       bool  // random offsets within the rank's regions
	ReadBack     bool  // read phase after the write phase
	Seed         int64
}

// IOR generates an IOR-style shared-file workload. With Random=false each
// rank writes its Blocks regions sequentially; with Random=true the
// transfer-sized records of each region are visited in random order
// (IOR -z), modelling the paper's IOR_64K workload.
func IOR(spec IORSpec, scale float64) *Workload {
	label := fmt.Sprintf("IOR_%s", sizeLabel(spec.TransferSize))
	b := newBuilder(label, "MPI-IO", spec.Ranks, scale)
	rng := rand.New(rand.NewSource(spec.Seed))

	blocks := scaleCount(spec.Blocks, 1.0) // block count is pattern, not volume
	blockSize := int64(float64(spec.BlockSize) * scale)
	// Keep the block an integer number of transfers.
	xfers := int(blockSize / spec.TransferSize)
	if xfers < 2 {
		xfers = 2
	}
	blockSize = int64(xfers) * spec.TransferSize

	dir := b.addDir()
	shared := b.addFile(dir, true)

	b.phase("write")
	for r := 0; r < spec.Ranks; r++ {
		b.op(r, Op{Type: OpCreate, File: shared, Dir: dir})
	}
	for blk := 0; blk < blocks; blk++ {
		for r := 0; r < spec.Ranks; r++ {
			base := (int64(blk)*int64(spec.Ranks) + int64(r)) * blockSize
			order := sequentialOrder(xfers)
			if spec.Random {
				order = shuffled(xfers, rng)
			}
			for _, i := range order {
				b.op(r, Op{Type: OpWrite, File: shared,
					Offset: base + int64(i)*spec.TransferSize, Size: spec.TransferSize})
			}
		}
	}
	for r := 0; r < spec.Ranks; r++ {
		b.op(r, Op{Type: OpFsync, File: shared})
		b.op(r, Op{Type: OpClose, File: shared})
	}
	b.barrier()

	if spec.ReadBack {
		b.phase("read")
		for r := 0; r < spec.Ranks; r++ {
			b.op(r, Op{Type: OpOpen, File: shared, Dir: dir})
		}
		for blk := 0; blk < blocks; blk++ {
			for r := 0; r < spec.Ranks; r++ {
				// IOR -C style rank reordering so reads are remote to the
				// writer's cache.
				reader := (r + 1) % spec.Ranks
				base := (int64(blk)*int64(spec.Ranks) + int64(r)) * blockSize
				order := sequentialOrder(xfers)
				if spec.Random {
					order = shuffled(xfers, rng)
				}
				for _, i := range order {
					b.op(reader, Op{Type: OpRead, File: shared,
						Offset: base + int64(i)*spec.TransferSize, Size: spec.TransferSize})
				}
			}
		}
		for r := 0; r < spec.Ranks; r++ {
			b.op(r, Op{Type: OpClose, File: shared})
		}
		b.barrier()
	}
	return b.w
}

func sequentialOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// IOR64K reproduces the paper's IOR_64K workload: each of 50 ranks randomly
// writes/reads a 128 MiB region of a shared file in 64 KiB transfers.
func IOR64K(ranks int, scale float64) *Workload {
	return IOR(IORSpec{
		Ranks: ranks, TransferSize: 64 << 10, BlockSize: 128 << 20,
		Blocks: 1, Random: true, ReadBack: true, Seed: 64,
	}, scale)
}

// IOR16M reproduces IOR_16M: each rank writes/reads three 128 MiB blocks
// sequentially with 16 MiB transfers to a shared file.
func IOR16M(ranks int, scale float64) *Workload {
	return IOR(IORSpec{
		Ranks: ranks, TransferSize: 16 << 20, BlockSize: 128 << 20,
		Blocks: 3, Random: false, ReadBack: true, Seed: 16,
	}, scale)
}

// MDWorkbenchSpec parametrises the metadata benchmark.
type MDWorkbenchSpec struct {
	Ranks       int
	DirsPerRank int
	FilesPerDir int
	FileSize    int64
	Rounds      int
	SharedDirs  bool // all ranks work in the same directories (IO500 "hard")
}

// MDWorkbench generates the per-file metadata cycle the paper describes:
// each round performs create, write, close, stat, open, read, close, unlink
// on every file. Stats walk directory entries in order, which is the
// pattern Lustre statahead accelerates.
func MDWorkbench(spec MDWorkbenchSpec, scale float64) *Workload {
	label := fmt.Sprintf("MDWorkbench_%s", sizeLabel(spec.FileSize))
	b := newBuilder(label, "POSIX", spec.Ranks, scale)

	dirsPerRank := scaleCount(spec.DirsPerRank, scale)
	filesPerDir := scaleCount(spec.FilesPerDir, scale)

	// Directory and file tables. One file table entry per (round, slot) is
	// wasteful; files are recreated each round at the same path, so reuse
	// the same ids across rounds.
	type slot struct {
		file int32
		idx  int32
	}
	perRank := make([][]slot, spec.Ranks)
	rankDirs := make([][]int32, spec.Ranks)
	for r := 0; r < spec.Ranks; r++ {
		for d := 0; d < dirsPerRank; d++ {
			var dir int32
			if spec.SharedDirs && r > 0 {
				dir = rankDirs[0][d] // share rank 0's dirs
			} else {
				dir = b.addDir()
				rankDirs[r] = append(rankDirs[r], dir)
			}
			for f := 0; f < filesPerDir; f++ {
				file := b.addFile(dir, spec.SharedDirs)
				perRank[r] = append(perRank[r], slot{file: file, idx: int32(f)})
			}
		}
	}
	for r := 0; r < spec.Ranks; r++ {
		for _, dir := range rankDirs[r] {
			b.op(r, Op{Type: OpMkdir, Dir: dir})
		}
	}
	b.barrier()
	b.phase("benchmark")
	for round := 0; round < spec.Rounds; round++ {
		for r := 0; r < spec.Ranks; r++ {
			for _, s := range perRank[r] {
				dir := b.w.Files[s.file].Dir
				b.op(r, Op{Type: OpCreate, File: s.file, Dir: dir, Index: s.idx})
				b.op(r, Op{Type: OpWrite, File: s.file, Offset: 0, Size: spec.FileSize})
				b.op(r, Op{Type: OpClose, File: s.file})
				b.op(r, Op{Type: OpStat, File: s.file, Dir: dir, Index: s.idx})
				b.op(r, Op{Type: OpOpen, File: s.file, Dir: dir, Index: s.idx})
				b.op(r, Op{Type: OpRead, File: s.file, Offset: 0, Size: spec.FileSize})
				b.op(r, Op{Type: OpClose, File: s.file})
				b.op(r, Op{Type: OpUnlink, File: s.file, Dir: dir, Index: s.idx})
			}
		}
		b.barrier()
	}
	return b.w
}

// MDWorkbench2K reproduces MDWorkbench_2K: 10 dirs per rank, 400 files per
// dir, 2 KiB files, 3 rounds.
func MDWorkbench2K(ranks int, scale float64) *Workload {
	return MDWorkbench(MDWorkbenchSpec{
		Ranks: ranks, DirsPerRank: 10, FilesPerDir: 400, FileSize: 2 << 10, Rounds: 3,
	}, scale)
}

// MDWorkbench8K reproduces MDWorkbench_8K with 8 KiB files.
func MDWorkbench8K(ranks int, scale float64) *Workload {
	return MDWorkbench(MDWorkbenchSpec{
		Ranks: ranks, DirsPerRank: 10, FilesPerDir: 400, FileSize: 8 << 10, Rounds: 3,
	}, scale)
}

// IO500 combines the standard phases: IOR-Easy (large sequential),
// IOR-Hard (small random to a shared file), MDTest-Easy (empty files,
// private dirs), and MDTest-Hard (small files, one shared dir).
func IO500(ranks int, scale float64) *Workload {
	b := newBuilder("IO500", "MPI-IO", ranks, scale)
	// Fixed-seed generator: the benchmark's random offsets are a
	// reproducible constant of the named workload.
	rng := rand.New(rand.NewSource(500))

	// --- IOR-Easy: per-rank sequential large transfers to a shared file.
	b.phase("ior-easy")
	dirEasy := b.addDir()
	fEasy := b.addFile(dirEasy, true)
	easyBlock := int64(float64(256<<20) * scale)
	const easyXfer = 8 << 20
	xfers := int(easyBlock / easyXfer)
	if xfers < 4 {
		xfers = 4
	}
	for r := 0; r < ranks; r++ {
		b.op(r, Op{Type: OpCreate, File: fEasy, Dir: dirEasy})
		base := int64(r) * int64(xfers) * easyXfer
		for i := 0; i < xfers; i++ {
			b.op(r, Op{Type: OpWrite, File: fEasy, Offset: base + int64(i)*easyXfer, Size: easyXfer})
		}
		b.op(r, Op{Type: OpFsync, File: fEasy})
		b.op(r, Op{Type: OpClose, File: fEasy})
	}
	b.barrier()
	for r := 0; r < ranks; r++ {
		reader := (r + 1) % ranks
		base := int64(r) * int64(xfers) * easyXfer
		b.op(reader, Op{Type: OpOpen, File: fEasy, Dir: dirEasy})
		for i := 0; i < xfers; i++ {
			b.op(reader, Op{Type: OpRead, File: fEasy, Offset: base + int64(i)*easyXfer, Size: easyXfer})
		}
		b.op(reader, Op{Type: OpClose, File: fEasy})
	}
	b.barrier()

	// --- IOR-Hard: 47008-byte records at random shared offsets.
	b.phase("ior-hard")
	dirHard := b.addDir()
	fHard := b.addFile(dirHard, true)
	const hardXfer = 47008
	hardOps := scaleCount(1200, scale)
	for r := 0; r < ranks; r++ {
		b.op(r, Op{Type: OpCreate, File: fHard, Dir: dirHard})
	}
	for i := 0; i < hardOps; i++ {
		for r := 0; r < ranks; r++ {
			off := int64(rng.Intn(ranks*hardOps)) * hardXfer
			b.op(r, Op{Type: OpWrite, File: fHard, Offset: off, Size: hardXfer})
		}
	}
	for r := 0; r < ranks; r++ {
		b.op(r, Op{Type: OpFsync, File: fHard})
		b.op(r, Op{Type: OpClose, File: fHard})
	}
	b.barrier()

	// --- MDTest-Easy: empty files in per-rank directories:
	// create all, stat all, unlink all (scan order -> statahead-friendly).
	b.phase("mdtest-easy")
	mdEasyFiles := scaleCount(800, scale)
	for r := 0; r < ranks; r++ {
		dir := b.addDir()
		b.op(r, Op{Type: OpMkdir, Dir: dir})
		files := make([]int32, mdEasyFiles)
		for i := range files {
			files[i] = b.addFile(dir, false)
		}
		for i, f := range files {
			b.op(r, Op{Type: OpCreate, File: f, Dir: dir, Index: int32(i)})
			b.op(r, Op{Type: OpClose, File: f})
		}
		for i, f := range files {
			b.op(r, Op{Type: OpStat, File: f, Dir: dir, Index: int32(i)})
		}
		for i, f := range files {
			b.op(r, Op{Type: OpUnlink, File: f, Dir: dir, Index: int32(i)})
		}
	}
	b.barrier()

	// --- MDTest-Hard: 3901-byte files in ONE shared directory.
	b.phase("mdtest-hard")
	sharedDir := b.addDir()
	b.op(0, Op{Type: OpMkdir, Dir: sharedDir})
	b.barrier()
	mdHardFiles := scaleCount(300, scale)
	const hardFileSize = 3901
	for r := 0; r < ranks; r++ {
		files := make([]int32, mdHardFiles)
		for i := range files {
			files[i] = b.addFile(sharedDir, true)
		}
		for i, f := range files {
			b.op(r, Op{Type: OpCreate, File: f, Dir: sharedDir, Index: int32(r*mdHardFiles + i)})
			b.op(r, Op{Type: OpWrite, File: f, Offset: 0, Size: hardFileSize})
			b.op(r, Op{Type: OpClose, File: f})
		}
		for i, f := range files {
			b.op(r, Op{Type: OpStat, File: f, Dir: sharedDir, Index: int32(r*mdHardFiles + i)})
		}
		for i, f := range files {
			b.op(r, Op{Type: OpUnlink, File: f, Dir: sharedDir, Index: int32(r*mdHardFiles + i)})
		}
	}
	b.barrier()
	b.w.Name = "IO500"
	return b.w
}

// AMReX models the plotfile write kernel of a block-structured AMR code:
// each rank writes a sequence of variable-sized grid blocks into a shared
// plotfile per step (aggregated, mostly sequential), plus a small header,
// repeated over several steps, then reads back one step (restart).
func AMReX(ranks int, scale float64) *Workload {
	b := newBuilder("AMReX", "MPI-IO", ranks, scale)
	// Fixed-seed generator: block-size variation reproduces identically
	// for a given (ranks, scale).
	rng := rand.New(rand.NewSource(42))
	steps := 4
	blocksPerRank := scaleCount(24, scale)
	dir := b.addDir()

	b.phase("plotfiles")
	var stepFiles []int32
	for s := 0; s < steps; s++ {
		f := b.addFile(dir, true)
		stepFiles = append(stepFiles, f)
		hdr := b.addFile(dir, false)
		// Rank 0 writes the header (metadata-ish small I/O).
		b.op(0, Op{Type: OpCreate, File: hdr, Dir: dir})
		b.op(0, Op{Type: OpWrite, File: hdr, Offset: 0, Size: 24 << 10})
		b.op(0, Op{Type: OpClose, File: hdr})
		for r := 0; r < ranks; r++ {
			b.op(r, Op{Type: OpCreate, File: f, Dir: dir})
		}
		// AMR block sizes vary by refinement level: 256 KiB - 4 MiB.
		offs := make([]int64, ranks)
		rankSpan := int64(blocksPerRank) * (4 << 20)
		for r := 0; r < ranks; r++ {
			offs[r] = int64(r) * rankSpan
		}
		for i := 0; i < blocksPerRank; i++ {
			for r := 0; r < ranks; r++ {
				level := rng.Intn(3)
				size := int64(256<<10) << uint(2*level) // 256K, 1M, 4M
				b.op(r, Op{Type: OpWrite, File: f, Offset: offs[r], Size: size})
				offs[r] += size
			}
		}
		for r := 0; r < ranks; r++ {
			b.op(r, Op{Type: OpFsync, File: f})
			b.op(r, Op{Type: OpClose, File: f})
		}
		b.barrier()
	}

	// Restart read of the last plotfile, sequential per rank.
	b.phase("restart-read")
	last := stepFiles[len(stepFiles)-1]
	for r := 0; r < ranks; r++ {
		reader := (r + 2) % ranks
		b.op(reader, Op{Type: OpOpen, File: last, Dir: dir})
		base := int64(r) * int64(blocksPerRank) * (4 << 20)
		var off int64
		for i := 0; i < blocksPerRank; i++ {
			size := int64(1 << 20)
			b.op(reader, Op{Type: OpRead, File: last, Offset: base + off, Size: size})
			off += size
		}
		b.op(reader, Op{Type: OpClose, File: last})
	}
	b.barrier()
	return b.w
}

// MACSio models the multi-purpose I/O proxy: per-dump, each rank writes a
// set of data objects of the configured nominal size (with +-25% part
// variation) to a file-per-process, over several dumps.
func MACSio(ranks int, objectSize int64, scale float64) *Workload {
	label := fmt.Sprintf("MACSio_%s", sizeLabel(objectSize))
	b := newBuilder(label, "MPI-IO", ranks, scale)
	// Seeded by objectSize so each MACSio variant draws its own stable
	// part-size sequence.
	rng := rand.New(rand.NewSource(objectSize))
	dumps := 3
	objsPerDump := scaleCount(20, scale)
	if objectSize >= 8<<20 {
		objsPerDump = scaleCount(16, scale)
	}
	dir := b.addDir()

	b.phase("dumps")
	for d := 0; d < dumps; d++ {
		for r := 0; r < ranks; r++ {
			f := b.addFile(dir, false)
			b.op(r, Op{Type: OpCreate, File: f, Dir: dir})
			var off int64
			for o := 0; o < objsPerDump; o++ {
				// parts vary +-25% around the nominal object size
				size := objectSize + int64(rng.Int63n(objectSize/2)) - objectSize/4
				b.op(r, Op{Type: OpWrite, File: f, Offset: off, Size: size})
				off += size
			}
			b.op(r, Op{Type: OpFsync, File: f})
			b.op(r, Op{Type: OpClose, File: f})
		}
		b.barrier()
	}
	return b.w
}

// MACSio512K is the paper's MACSio configuration with 512 KiB objects.
func MACSio512K(ranks int, scale float64) *Workload { return MACSio(ranks, 512<<10, scale) }

// MACSio16M is the paper's MACSio configuration with 16 MiB objects.
func MACSio16M(ranks int, scale float64) *Workload { return MACSio(ranks, 16<<20, scale) }

// catalog maps every recognised workload name to its generator — the single
// source of truth Catalog and Known both consult, so admission checks can
// never drift from what actually runs.
var catalog = map[string]func(ranks int, scale float64) *Workload{
	"IOR_64K":        IOR64K,
	"IOR_16M":        IOR16M,
	"MDWorkbench_2K": MDWorkbench2K,
	"MDWorkbench_8K": MDWorkbench8K,
	"IO500":          IO500,
	"AMReX":          AMReX,
	"MACSio_512K":    MACSio512K,
	"MACSio_16M":     MACSio16M,
	"E3SM":           E3SM,
	"H5Bench":        H5Bench,
	"darshan-replay": DarshanReplay,
	"multitenant":    Multitenant,
}

// Catalog returns the named workload at the given rank count and scale.
// Recognised names match the paper's labels.
//
// The result is shared and immutable: equal (name, ranks, scale) calls
// return the same *Workload from a bounded memo (see shared.go), sealed
// with its content digest so run keys never re-hash its op streams.
// Callers must not modify it. To derive a variant, copy the struct and
// replace — never write through — the slices being changed; the copy is
// unsealed and hashes its own content.
func Catalog(name string, ranks int, scale float64) (*Workload, error) {
	gen, ok := catalog[name]
	if !ok {
		if near := Nearest(name); near != "" {
			return nil, fmt.Errorf("workload: %w %q (closest known family: %q)", ErrUnknown, name, near)
		}
		return nil, fmt.Errorf("workload: %w %q", ErrUnknown, name)
	}
	return shared.get(sharedKey{name: name, ranks: ranks, scale: math.Float64bits(scale)},
		func() *Workload { return gen(ranks, scale) }), nil
}

// Nearest returns the catalog name closest to name by case-insensitive edit
// distance, or "" when nothing is close enough to plausibly be a typo (more
// than two-thirds of the longer name would need rewriting). Serving layers
// use it to turn a bare "unknown workload" rejection into a suggestion.
func Nearest(name string) string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	best, bestDist := "", int(^uint(0)>>1)
	for _, n := range names {
		d := editDistance(strings.ToLower(name), strings.ToLower(n))
		if d < bestDist {
			best, bestDist = n, d
		}
	}
	limit := len(name)
	if l := len(best); l > limit {
		limit = l
	}
	if best == "" || bestDist > limit*2/3 {
		return ""
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Known reports whether name is in the catalog without generating the
// workload — the cheap admission check serving layers use before committing
// a queue worker to a request.
func Known(name string) bool {
	_, ok := catalog[name]
	return ok
}

// Benchmarks lists the five benchmark workloads of Figure 5/6.
func Benchmarks() []string {
	return []string{"IOR_64K", "IOR_16M", "MDWorkbench_2K", "MDWorkbench_8K", "IO500"}
}

// RealApps lists the real-application workloads of Figure 7.
func RealApps() []string {
	return []string{"AMReX", "MACSio_512K", "MACSio_16M"}
}

// Extras lists additional application kernels named in the paper's Figure 1
// but not part of its evaluation figures.
func Extras() []string {
	return []string{"E3SM", "H5Bench"}
}

// Adversarial lists the scenario-diversity families: trace-driven replay
// and the interfering multi-tenant mix.
func Adversarial() []string {
	return []string{"darshan-replay", "multitenant"}
}
