package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/pool"
)

// TestEvaluateBatchMatchesPerRepEvaluate proves the batched path — one
// workload build, one pooled procfs render, one shared config snapshot, the
// simulator's recycled scratch across reps — changes nothing observable:
// every repetition's wall time is bit-identical to running that repetition
// alone as a one-rep Evaluate with the same derived seed.
func TestEvaluateBatchMatchesPerRepEvaluate(t *testing.T) {
	eng := testEngine(t, nil)
	ctx := context.Background()
	cfg := params.Config{
		"osc.max_rpcs_in_flight": 16,
		"lov.stripe_count":       -1,
	}
	const reps = 4
	const seedBase = 99

	req := EvalRequest{Workload: "IOR_16M", Config: cfg, Reps: reps, SeedBase: seedBase}
	walls, sum, err := eng.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(walls) != reps {
		t.Fatalf("got %d walls, want %d", len(walls), reps)
	}
	for i := 0; i < reps; i++ {
		// Per-rep evaluation of repetition i uses the same seed function:
		// seedBase + i*101 with a single rep at index 0.
		single, _, err := eng.Evaluate(ctx, EvalRequest{Workload: "IOR_16M", Config: cfg, Reps: 1, SeedBase: seedBase + int64(i)*101})
		if err != nil {
			t.Fatal(err)
		}
		if single[0] != walls[i] {
			t.Fatalf("rep %d diverged: batch %v, per-rep %v", i, walls[i], single[0])
		}
	}
	// The summary must summarize exactly the returned series.
	again, sum2, err := eng.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range walls {
		if walls[i] != again[i] {
			t.Fatalf("batch rerun diverged at rep %d: %v vs %v", i, walls[i], again[i])
		}
	}
	if !reflect.DeepEqual(sum, sum2) {
		t.Fatalf("summary not reproducible: %+v vs %+v", sum, sum2)
	}
}

// TestEvaluateBatchFaults pins the fault seam end to end through the
// engine: a seeded plan reproduces bit-identically across two independent
// engines (the cross-process determinism the CI smoke also checks),
// perturbs the clean series, and composes with the engine-wide default in
// Options.Faults — which an explicit zero plan overrides back to clean.
func TestEvaluateBatchFaults(t *testing.T) {
	ctx := context.Background()
	cfg := params.Config{"osc.max_rpcs_in_flight": 16}
	plan := lustre.FaultPlan{Seed: 42, Severity: 0.6}
	const reps = 3
	const seedBase = 99

	req := EvalRequest{Workload: "IOR_16M", Config: cfg, Reps: reps, SeedBase: seedBase}
	faulted := req
	faulted.Faults = &plan
	clean, _, err := testEngine(t, nil).Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	a, sumA, err := testEngine(t, nil).Evaluate(ctx, faulted)
	if err != nil {
		t.Fatal(err)
	}
	b, sumB, err := testEngine(t, nil).Evaluate(ctx, faulted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(sumA, sumB) {
		t.Fatalf("faulted batch not deterministic across engines:\n%v\nvs\n%v", a, b)
	}
	if reflect.DeepEqual(a, clean) {
		t.Fatal("fault plan left the wall-time series untouched")
	}

	// Options.Faults is the default for every trial; an explicit zero plan
	// passed as EvalRequest.Faults must still mean "healthy cluster".
	faultedEngine := testEngine(t, func(o *Options) { o.Faults = plan })
	viaDefault, _, err := faultedEngine.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaDefault, a) {
		t.Fatal("engine-default plan diverged from the explicit per-call plan")
	}
	override := req
	override.Faults = &lustre.FaultPlan{}
	overridden, _, err := faultedEngine.Evaluate(ctx, override)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(overridden, clean) {
		t.Fatal("zero-plan override did not restore the clean series")
	}

	invalid := EvalRequest{Workload: "IOR_16M", Config: cfg, Reps: 1, SeedBase: 1, Faults: &lustre.FaultPlan{Severity: 2}}
	if _, _, err := testEngine(t, nil).Evaluate(ctx, invalid); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

// keyCheckingPlatform asserts every run it sees keys exactly like a spec
// built afresh from the same fields, which carries no key base, before
// simulating it.
type keyCheckingPlatform struct {
	t    *testing.T
	mu   sync.Mutex
	keys map[string]bool
}

func (*keyCheckingPlatform) Name() string { return "key-checking(sim)" }

func (p *keyCheckingPlatform) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	fresh := platform.RunSpec{Spec: spec.Spec, Workload: spec.Workload, Config: spec.Config, Seed: spec.Seed, Faults: spec.Faults}
	got, want := spec.Key(), fresh.Key()
	if got != want {
		p.t.Errorf("seed %d keyed %s, its full key is %s", spec.Seed, got, want)
	}
	p.mu.Lock()
	p.keys[got] = true
	p.mu.Unlock()
	return platform.Simulator{}.Run(ctx, spec)
}

// TestEvaluateKeysMatchFullKeys: the reps of an Evaluate share one key
// base, and every rep still keys byte for byte like a spec keyed in full,
// clean or faulted, serial or fanned out, each rep under its own key.
func TestEvaluateKeysMatchFullKeys(t *testing.T) {
	kp := &keyCheckingPlatform{t: t, keys: map[string]bool{}}
	eng := testEngine(t, func(o *Options) { o.Platform = kp })
	cfg := params.Config{"osc.max_rpcs_in_flight": 16}
	plan := lustre.FaultPlan{Seed: 42, Severity: 0.6}
	runs := 0
	for _, ctx := range []context.Context{context.Background(), pool.WithBudget(context.Background(), pool.NewBudget(4))} {
		for _, faults := range []*lustre.FaultPlan{nil, &plan} {
			req := EvalRequest{Workload: "IOR_16M", Config: cfg, Reps: 3, SeedBase: -5, Faults: faults}
			if _, _, err := eng.Evaluate(ctx, req); err != nil {
				t.Fatal(err)
			}
			runs += req.Reps
		}
	}
	if len(kp.keys) != runs/2 {
		t.Fatalf("%d runs keyed to %d distinct keys, want %d", runs, len(kp.keys), runs/2)
	}
}
