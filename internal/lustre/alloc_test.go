package lustre

import (
	"context"
	"runtime"
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/params"
	"stellar/internal/workload"
)

// These gates pin the model layer's allocation-free steady state: with the
// scratch pool warm, executing MORE ops of a path must not allocate
// proportionally more. Each test measures the marginal allocations per
// additional op — allocs(k2 ops) - allocs(k1 ops) over (k2 - k1) — so
// fixed per-run setup (runner, simulated servers) cancels out and only
// per-op costs remain. The seed implementation paid ~8 closures per data RPC
// plus 2 per application op; the arena rewrite must keep the marginal cost
// ~0. TestPerFileSetupAllocFree applies the same measure to files.

const allocMiB = int64(1 << 20)

func singleRankSpec() cluster.Spec {
	spec := cluster.Default()
	spec.ClientNodes = 1
	spec.ProcsPerNode = 1
	return spec
}

// marginalAllocs runs build(k1) and build(k2) workloads to steady state and
// returns the marginal allocations per unit of k (an op, or a file).
func marginalAllocs(t *testing.T, spec cluster.Spec, cfg params.Config, build func(k int) *workload.Workload, k1, k2 int) float64 {
	t.Helper()
	run := func(w *workload.Workload) {
		if _, err := Run(context.Background(), w, Options{Spec: spec, Config: cfg, Seed: 11}); err != nil {
			t.Fatal(err)
		}
	}
	w1, w2 := build(k1), build(k2)
	// Start from a fresh GC cycle so the collector doesn't clear the
	// scratch pool mid-measurement, then warm the pool and the arenas to
	// their high-water sizes.
	runtime.GC()
	run(w2)
	run(w1)
	a1 := testing.AllocsPerRun(5, func() { run(w1) })
	a2 := testing.AllocsPerRun(5, func() { run(w2) })
	return (a2 - a1) / float64(k2-k1)
}

func checkMarginal(t *testing.T, path string, perOp float64) {
	t.Helper()
	// Allow a little noise (map resizes, pool refills) but nothing close to
	// the seed's per-op closure costs.
	if perOp > 2 {
		t.Fatalf("%s path allocates %.2f per op in steady state; want ~0", path, perOp)
	}
	t.Logf("%s path: %.3f marginal allocs/op", path, perOp)
}

// TestWritePathAllocFree covers doWrite admission, write-back staging and
// coalescing, the rsAdmitWrite state machine, and dirty-limit wakeups.
func TestWritePathAllocFree(t *testing.T) {
	build := func(k int) *workload.Workload {
		ops := []workload.Op{{Type: workload.OpCreate, File: 0, Dir: 0}}
		for i := 0; i < k; i++ {
			ops = append(ops, workload.Op{
				Type: workload.OpWrite, File: 0,
				Offset: int64(i) * allocMiB, Size: allocMiB,
			})
		}
		return &workload.Workload{
			Name:     "alloc-write",
			Ranks:    [][]workload.Op{ops},
			Files:    []workload.FileMeta{{Dir: 0}},
			DirCount: 1,
		}
	}
	cfg := params.DefaultConfig(params.Lustre())
	checkMarginal(t, "write", marginalAllocs(t, singleRankSpec(), cfg, build, 128, 384))
}

// TestSequentialReadPathAllocFree covers the synchronous fetch path — the
// rsAdmitRead state machine and readReq completion — with readahead
// disabled so every read goes to the OSTs.
func TestSequentialReadPathAllocFree(t *testing.T) {
	build := func(k int) *workload.Workload {
		var ops []workload.Op
		for i := 0; i < k; i++ {
			ops = append(ops, workload.Op{
				Type: workload.OpRead, File: 0,
				Offset: int64(i) * allocMiB, Size: allocMiB,
			})
		}
		return &workload.Workload{
			Name:     "alloc-read",
			Ranks:    [][]workload.Op{ops},
			Files:    []workload.FileMeta{{Dir: 0}},
			DirCount: 1,
		}
	}
	cfg := params.DefaultConfig(params.Lustre())
	cfg["llite.max_read_ahead_mb"] = 0
	cfg["llite.max_read_ahead_per_file_mb"] = 0
	checkMarginal(t, "sequential-read", marginalAllocs(t, singleRankSpec(), cfg, build, 128, 384))
}

// TestReadaheadPathAllocFree covers readahead issue, rcRA completion,
// raWaiter parking/compaction, and the raWake resumption. Writes start at a
// nonzero offset so the page cache never covers the reads and the RA
// machinery does the serving.
func TestReadaheadPathAllocFree(t *testing.T) {
	const base = int64(8) << 20
	build := func(k int) *workload.Workload {
		ops := []workload.Op{{Type: workload.OpCreate, File: 0, Dir: 0}}
		for i := 0; i < k; i++ {
			ops = append(ops, workload.Op{
				Type: workload.OpWrite, File: 0,
				Offset: base + int64(i)*allocMiB, Size: allocMiB,
			})
		}
		ops = append(ops, workload.Op{Type: workload.OpFsync, File: 0})
		for i := 0; i < k; i++ {
			ops = append(ops, workload.Op{
				Type: workload.OpRead, File: 0,
				Offset: base + int64(i)*allocMiB, Size: allocMiB,
			})
		}
		return &workload.Workload{
			Name:     "alloc-ra",
			Ranks:    [][]workload.Op{ops},
			Files:    []workload.FileMeta{{Dir: 0}},
			DirCount: 1,
		}
	}
	cfg := params.DefaultConfig(params.Lustre())
	perOp := marginalAllocs(t, singleRankSpec(), cfg, build, 128, 384)
	// Two ops (one write + one read) per k step.
	checkMarginal(t, "readahead", perOp/2)
}

// TestMetadataPathAllocFree covers the stat fast path served entirely by
// the client lock/attribute cache.
func TestMetadataPathAllocFree(t *testing.T) {
	build := func(k int) *workload.Workload {
		ops := []workload.Op{{Type: workload.OpCreate, File: 0, Dir: 0}}
		for i := 0; i < k; i++ {
			ops = append(ops, workload.Op{Type: workload.OpStat, File: 0, Dir: -1})
		}
		return &workload.Workload{
			Name:     "alloc-stat",
			Ranks:    [][]workload.Op{ops},
			Files:    []workload.FileMeta{{Dir: 0}},
			DirCount: 1,
		}
	}
	cfg := params.DefaultConfig(params.Lustre())
	checkMarginal(t, "metadata", marginalAllocs(t, singleRankSpec(), cfg, build, 256, 768))
}

// TestPerFileSetupAllocFree pins per-run setup: with the scratch warm, a
// run over more files must not allocate more. Each file's state and its
// lastOff, contigTo and raState rows, and the client caches' links over
// file ids, are reset in the scratch's slabs rather than allocated per file.
func TestPerFileSetupAllocFree(t *testing.T) {
	build := func(k int) *workload.Workload {
		files := make([]workload.FileMeta, k)
		return &workload.Workload{
			Name:     "alloc-files",
			Ranks:    [][]workload.Op{{{Type: workload.OpCreate, File: 0, Dir: 0}, {Type: workload.OpStat, File: 0, Dir: -1}}},
			Files:    files,
			DirCount: 1,
		}
	}
	cfg := params.DefaultConfig(params.Lustre())
	perFile := marginalAllocs(t, singleRankSpec(), cfg, build, 256, 768)
	if perFile > 0.05 {
		t.Fatalf("run setup allocates %.3f per file with a warm scratch; want ~0", perFile)
	}
	t.Logf("setup: %.4f marginal allocs/file", perFile)
}
