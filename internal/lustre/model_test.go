package lustre

import (
	"testing"

	"stellar/internal/workload"
)

// Additional behavioural tests for individual parameter mechanisms.

func TestShortIOHelpsTinyTransfers(t *testing.T) {
	// Many tiny synchronous reads: inlining should cut per-request setup.
	w := workload.IOR(workload.IORSpec{
		Ranks: 4, TransferSize: 4 << 10, BlockSize: 1 << 20, Blocks: 1,
		Random: true, ReadBack: true, Seed: 4,
	}, 1.0)
	spec := testSpec()
	off := defaultCfg()
	off["osc.short_io_bytes"] = 0
	off["llite.max_read_ahead_mb"] = 0
	off["llite.max_read_ahead_per_file_mb"] = 0
	on := off.Clone()
	on["osc.short_io_bytes"] = 65536
	tOff := runOn(t, w, spec, off, 6).WallTime
	tOn := runOn(t, w, spec, on, 6).WallTime
	if tOn >= tOff {
		t.Fatalf("short I/O did not help tiny transfers: %g vs %g", tOff, tOn)
	}
}

func TestChecksumsTaxBandwidth(t *testing.T) {
	w := smallIOR(false)
	spec := testSpec()
	on := defaultCfg() // checksums default on
	off := defaultCfg()
	off["osc.checksums"] = 0
	tOn := runOn(t, w, spec, on, 7).WallTime
	tOff := runOn(t, w, spec, off, 7).WallTime
	if tOff >= tOn {
		t.Fatalf("disabling checksums did not help: on %g vs off %g", tOn, tOff)
	}
}

func TestFilePerProcessPlacementImbalance(t *testing.T) {
	// Many single-stripe files land unevenly across OSTs (hash placement);
	// wide striping with small stripes rebalances.
	w := workload.MACSio(4, 4<<20, 1.0)
	spec := testSpec()
	narrow := defaultCfg()
	narrow["lov.stripe_count"] = 1
	wide := defaultCfg()
	wide["lov.stripe_count"] = -1
	wide["lov.stripe_size"] = 1 << 20
	tN := runOn(t, w, spec, narrow, 8).WallTime
	tW := runOn(t, w, spec, wide, 8).WallTime
	if tW >= tN {
		t.Fatalf("striping did not fix placement imbalance: %g vs %g", tN, tW)
	}
}

func TestLockCacheBoundsStatahead(t *testing.T) {
	// With a lock LRU smaller than the statahead window, prefetched entries
	// are evicted before use; growing the LRU restores the hits.
	ranks := 4
	spec := testSpec()
	w := workload.IO500(ranks, 0.1)
	small := defaultCfg()
	small["ldlm.lru_size"] = 8
	small["llite.statahead_max"] = 256
	big := small.Clone()
	big["ldlm.lru_size"] = 65536
	rSmall := runOn(t, w, spec, small, 9)
	rBig := runOn(t, w, spec, big, 9)
	if rBig.StatHits <= rSmall.StatHits {
		t.Fatalf("larger lock cache should increase stat hits: %d vs %d",
			rSmall.StatHits, rBig.StatHits)
	}
}

func TestDependentReadaheadBoundClamped(t *testing.T) {
	// Setting the per-file window above half the global budget (the
	// dependent bound) must be clamped, not honoured.
	cfg := defaultCfg()
	cfg["llite.max_read_ahead_mb"] = 64
	cfg["llite.max_read_ahead_per_file_mb"] = 1000
	res := runOn(t, smallIOR(false), testSpec(), cfg, 2)
	found := false
	for _, c := range res.Clamped {
		if c == "llite.max_read_ahead_per_file_mb" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dependent bound violation not clamped: %v", res.Clamped)
	}
}

func TestBarrierSynchronisesRanks(t *testing.T) {
	// All ranks must pass each barrier together: barrier times are
	// strictly increasing and equal in count to the workload's barriers.
	w := workload.MDWorkbench(workload.MDWorkbenchSpec{
		Ranks: 4, DirsPerRank: 1, FilesPerDir: 5, FileSize: 1 << 10, Rounds: 2,
	}, 1.0)
	res := runOn(t, w, testSpec(), defaultCfg(), 3)
	wantBarriers := 0
	for _, op := range w.Ranks[0] {
		if op.Type == workload.OpBarrier {
			wantBarriers++
		}
	}
	if len(res.BarrierTimes) != wantBarriers {
		t.Fatalf("barrier count = %d, want %d", len(res.BarrierTimes), wantBarriers)
	}
	for i := 1; i < len(res.BarrierTimes); i++ {
		if res.BarrierTimes[i] <= res.BarrierTimes[i-1] {
			t.Fatal("barrier times not increasing")
		}
	}
}

func TestExtraWorkloadsRun(t *testing.T) {
	spec := testSpec()
	for _, name := range workload.Extras() {
		w, err := workload.Catalog(name, spec.TotalRanks(), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		res := runOn(t, w, spec, defaultCfg(), 11)
		if res.BytesWritten == 0 {
			t.Fatalf("%s wrote nothing", name)
		}
	}
}

// TestResultOwnsItsMemory: a Result must stay intact while later runs
// recycle the pooled scratch it came from, since caches hold Results
// indefinitely.
func TestResultOwnsItsMemory(t *testing.T) {
	w := workload.MDWorkbench(workload.MDWorkbenchSpec{
		Ranks: 4, DirsPerRank: 1, FilesPerDir: 5, FileSize: 1 << 10, Rounds: 2,
	}, 1.0)
	res := runOn(t, w, testSpec(), defaultCfg(), 3)
	want := append([]float64(nil), res.BarrierTimes...)
	if len(want) == 0 {
		t.Fatal("workload has no barriers")
	}
	for seed := int64(4); seed < 8; seed++ {
		runOn(t, w, testSpec(), defaultCfg(), seed)
	}
	for i := range want {
		if res.BarrierTimes[i] != want[i] {
			t.Fatalf("BarrierTimes[%d] changed from %g to %g after later runs", i, want[i], res.BarrierTimes[i])
		}
	}
}
