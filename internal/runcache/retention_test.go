package runcache

import (
	"context"
	"runtime"
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/workload"
)

// TestCachedResultsRetainOnlyThemselves pins what a resident entry costs:
// the simulated result and its key, not the simulator state that produced
// it. A Result that aliased its run would keep the run's file tables, the
// simulated servers and the pooled scratch alive per entry — megabytes
// each, where the DefaultCapacity comment budgets kilobytes.
func TestCachedResultsRetainOnlyThemselves(t *testing.T) {
	const entries, budget = 64, 64 << 10 // bytes per entry
	spec := cluster.Default()
	w, err := workload.Catalog("MDWorkbench_8K", spec.TotalRanks(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := params.DefaultConfig(params.Lustre())
	cache := New(platform.Simulator{}, 0)
	heap := func() uint64 {
		// Two collections: the first moves the scratch pool to its victim
		// cache, the second drops it.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for seed := int64(0); seed < entries; seed++ {
		rs := platform.RunSpec{Spec: spec, Workload: w, Config: cfg, Seed: seed}
		if _, err := cache.Run(context.Background(), rs); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if n := cache.Stats().Entries; n != entries {
		t.Fatalf("cache holds %d entries, want %d", n, entries)
	}
	per := (int64(after) - int64(before)) / entries
	t.Logf("live heap growth: %.1f KiB per entry", float64(per)/1024)
	if per > budget {
		t.Fatalf("each cached result retains %.1f KiB of live heap; want under %d KiB", float64(per)/1024, budget>>10)
	}
	runtime.KeepAlive(cache)
}
