package platform

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/workload"
)

func testSpec() cluster.Spec {
	s := cluster.Default()
	s.ClientNodes, s.ProcsPerNode, s.OSTCount = 2, 2, 3
	return s
}

func testRunSpec(t testing.TB, seed int64) RunSpec {
	t.Helper()
	spec := testSpec()
	w, err := workload.Catalog("IOR_16M", spec.TotalRanks(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return RunSpec{
		Spec:     spec,
		Workload: w,
		Config:   params.DefaultConfig(params.Lustre()),
		Seed:     seed,
	}
}

func TestKeyIsStableAndContentAddressed(t *testing.T) {
	a := testRunSpec(t, 7)
	b := testRunSpec(t, 7)
	if a.Key() != b.Key() {
		t.Fatal("identical specs produced different keys")
	}
	// The trace sink must not influence identity.
	b.Trace = &captureSink{}
	if a.Key() != b.Key() {
		t.Fatal("trace sink changed the key")
	}

	mutations := map[string]RunSpec{}
	seed := testRunSpec(t, 8)
	mutations["seed"] = seed

	cfg := testRunSpec(t, 7)
	cfg.Config = cfg.Config.Clone()
	cfg.Config["osc.max_rpcs_in_flight"] = 32
	mutations["config"] = cfg

	cl := testRunSpec(t, 7)
	cl.Spec.OSTCount = 4
	mutations["cluster"] = cl

	wl := testRunSpec(t, 7)
	w2, err := workload.Catalog("IOR_64K", wl.Spec.TotalRanks(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	wl.Workload = w2
	mutations["workload"] = wl

	op := testRunSpec(t, 7)
	clone := *op.Workload
	clone.Ranks = append([][]workload.Op{}, op.Workload.Ranks...)
	r0 := append([]workload.Op{}, clone.Ranks[0]...)
	r0[0].Size++
	clone.Ranks[0] = r0
	op.Workload = &clone
	mutations["single op"] = op

	for what, m := range mutations {
		if m.Key() == a.Key() {
			t.Errorf("changing the %s did not change the key", what)
		}
	}
}

// TestFaultPlanKeying pins the cache-identity contract for fault injection:
// a zero plan hashes exactly like the pre-fault RunSpec (committed
// recordings and warm caches stay valid), while any non-zero plan — and any
// change to one — produces a distinct key.
func TestFaultPlanKeying(t *testing.T) {
	clean := testRunSpec(t, 7)
	explicitZero := testRunSpec(t, 7)
	explicitZero.Faults = lustre.FaultPlan{}
	if clean.Key() != explicitZero.Key() {
		t.Fatal("explicit zero fault plan changed the key")
	}

	faulted := testRunSpec(t, 7)
	faulted.Faults = lustre.FaultPlan{Seed: 42, Severity: 0.6}
	if faulted.Key() == clean.Key() {
		t.Fatal("faulted spec shares the clean spec's key")
	}
	same := testRunSpec(t, 7)
	same.Faults = lustre.FaultPlan{Seed: 42, Severity: 0.6}
	if same.Key() != faulted.Key() {
		t.Fatal("identical fault plans produced different keys")
	}

	otherSeed := testRunSpec(t, 7)
	otherSeed.Faults = lustre.FaultPlan{Seed: 43, Severity: 0.6}
	if otherSeed.Key() == faulted.Key() {
		t.Fatal("changing the fault seed did not change the key")
	}
	explicit := testRunSpec(t, 7)
	explicit.Faults = lustre.FaultPlan{OSTs: []lustre.OSTFault{
		{OST: 0, Factor: 0, Window: lustre.Window{Start: 0.01, Duration: 0.02, Period: 0.1}},
	}}
	if explicit.Key() == faulted.Key() || explicit.Key() == clean.Key() {
		t.Fatal("explicit window plan collided with another key")
	}
}

// TestSimulatorAppliesFaults checks the plan actually reaches the model
// through the Platform seam: the faulted platform run must equal a direct
// faulted lustre.Run and must diverge from the clean run.
func TestSimulatorAppliesFaults(t *testing.T) {
	spec := testRunSpec(t, 3)
	spec.Faults = lustre.FaultPlan{Seed: 42, Severity: 0.6}
	direct, err := lustre.Run(context.Background(), spec.Workload, lustre.Options{
		Spec: spec.Spec, Config: spec.Config, Seed: spec.Seed, Faults: spec.Faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	viaPlatform, err := Simulator{}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaPlatform.Result) {
		t.Fatal("faulted platform run diverged from direct lustre.Run")
	}
	if direct.FaultStalls == 0 {
		t.Fatal("canonical seeded plan never engaged on the test spec")
	}
	clean := testRunSpec(t, 3)
	cleanRes, err := Simulator{}.Run(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	if cleanRes.WallTime == viaPlatform.WallTime {
		t.Fatal("fault plan did not perturb the wall time")
	}
}

func TestSimulatorMatchesDirectRun(t *testing.T) {
	spec := testRunSpec(t, 3)
	direct, err := lustre.Run(context.Background(), spec.Workload, lustre.Options{
		Spec: spec.Spec, Config: spec.Config, Seed: spec.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	viaPlatform, err := Simulator{}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaPlatform.Result) {
		t.Fatal("platform run diverged from direct lustre.Run")
	}
	if viaPlatform.WallTime != direct.WallTime {
		t.Fatal("WallTime not surfaced")
	}
}

type captureSink struct {
	events []lustre.Event
}

func (c *captureSink) Record(ev lustre.Event) { c.events = append(c.events, ev) }

// TestRecordingReadWriteRoundTrip pins the exported <key>.json helpers every
// run directory builds on: write, read back, exact match,
// os.IsNotExist-compatible misses, and the one replacement rule — events
// replace anything, an event-less recording only a missing or bad file.
func TestRecordingReadWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := testRunSpec(t, 11)
	res, err := Simulator{}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := Recording{Key: spec.Key(), Workload: spec.Workload.Name, Seed: spec.Seed, Result: *res}
	if err := WriteRecording(dir, &rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecording(dir, spec.Key())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&rec, got) {
		t.Fatalf("recording round trip diverged:\n%+v\nvs\n%+v", rec, *got)
	}
	if _, err := ReadRecording(dir, "0000000000000000"); !os.IsNotExist(err) {
		t.Fatalf("missing recording err = %v, want IsNotExist", err)
	}
	// An event-less rewrite never replaces a valid recording, which may be
	// the richer traced form of the same run.
	stale := rec
	stale.Result.WallTime++
	if err := WriteRecording(dir, &stale); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadRecording(dir, spec.Key()); err != nil || got.Result.WallTime != rec.Result.WallTime {
		t.Fatalf("event-less rewrite replaced a valid recording: %v", err)
	}
	// A recording with events replaces it.
	traced := stale
	traced.Events = []lustre.Event{{Rank: 1}}
	if err := WriteRecording(dir, &traced); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadRecording(dir, spec.Key()); err != nil || !reflect.DeepEqual(&traced, got) {
		t.Fatalf("traced rewrite not visible: %v", err)
	}
	// An event-less recording replaces a torn file.
	if err := os.WriteFile(filepath.Join(dir, spec.Key()+".json"), []byte(`{"key":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecording(dir, &stale); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadRecording(dir, spec.Key()); err != nil || got.Result.WallTime != stale.Result.WallTime {
		t.Fatalf("event-less write did not repair a torn file: %v", err)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}
