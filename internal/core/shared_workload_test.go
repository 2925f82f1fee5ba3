package core

import (
	"context"
	"testing"

	"stellar/internal/darshan"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/workload"
)

// TestSharedWorkloadIsNotMutatedByUse: workload.Catalog hands every caller
// the same sealed *Workload, so nothing that runs one may write to it — a
// write would change later trials while their run keys still name the old
// content. The full hash of the shared workload must therefore be the same
// before and after a plain run, a traced run, and a whole Tune.
func TestSharedWorkloadIsNotMutatedByUse(t *testing.T) {
	ctx := context.Background()
	eng := testEngine(t, nil)
	const family = "IO500"
	w, err := workload.Catalog(family, eng.opts.Spec.TotalRanks(), eng.opts.Scale)
	if err != nil {
		t.Fatal(err)
	}
	fullHash := func() [32]byte {
		cp := *w // a copy is unsealed, so its Digest hashes every op
		return cp.Digest()
	}
	want := w.Digest()
	check := func(after string) {
		t.Helper()
		if fullHash() != want {
			t.Fatalf("the shared workload changed during %s", after)
		}
	}
	check("nothing")

	opts := lustre.Options{Spec: eng.opts.Spec, Config: params.DefaultConfig(eng.Registry()), Seed: 5}
	if _, err := lustre.Run(ctx, w, opts); err != nil {
		t.Fatal(err)
	}
	check("lustre.Run")

	opts.Trace = darshan.NewCollector(w.Interface)
	if _, err := lustre.Run(ctx, w, opts); err != nil {
		t.Fatal(err)
	}
	check("a traced run")

	if _, err := eng.Tune(ctx, family); err != nil {
		t.Fatal(err)
	}
	check("Tune")
	if again, _ := workload.Catalog(family, eng.opts.Spec.TotalRanks(), eng.opts.Scale); again != w {
		t.Fatal("Catalog stopped sharing the workload the test ran")
	}
}

// TestWarmEvaluateBatchAllocs pins the cost of a warm hit: once every rep
// of an 8-rep batch is in the run cache, the whole Evaluate — shared
// workload lookup, config snapshot, eight keys and cache hits, summary —
// stays within 100 allocations, fanned out under a budget of 4 as the
// serving path does.
func TestWarmEvaluateBatchAllocs(t *testing.T) {
	ctx := pool.WithBudget(context.Background(), pool.NewBudget(4))
	eng := testEngine(t, func(o *Options) {
		o.Platform = runcache.New(platform.Simulator{}, 0)
	})
	req := EvalRequest{Workload: "IOR_16M", Config: params.DefaultConfig(eng.Registry()), Reps: 8, SeedBase: 99}
	evaluate := func() {
		if _, _, err := eng.Evaluate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	evaluate() // the cold pass simulates and fills the cache
	got := testing.AllocsPerRun(50, evaluate)
	if got > 100 {
		t.Fatalf("a warm 8-rep Evaluate allocates %.0f times, want <= 100", got)
	}
	t.Logf("a warm 8-rep Evaluate allocates %.0f times", got)
}
