package platform

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

func testRunSpec(t *testing.T, seed int64) RunSpec {
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

func TestRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := &Recorder{Inner: Simulator{}, Dir: dir}
	spec := testRunSpec(t, 5)

	liveSink := &captureSink{}
	traced := spec
	traced.Trace = liveSink
	live, err := rec.Run(context.Background(), traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(liveSink.events) == 0 {
		t.Fatal("recorder swallowed the live trace events")
	}

	rep := &Replayer{Dir: dir}
	replaySink := &captureSink{}
	replayTraced := spec
	replayTraced.Trace = replaySink
	replayed, err := rep.Run(context.Background(), replayTraced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.Result, replayed.Result) {
		t.Fatal("replayed result diverged from the live run")
	}
	if !reflect.DeepEqual(liveSink.events, replaySink.events) {
		t.Fatal("replayed trace events diverged from the live run")
	}

	// Untraced replay of the same key works too.
	again, err := rep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.WallTime != live.WallTime {
		t.Fatal("untraced replay diverged")
	}
}

// TestRecordingReadWriteRoundTrip pins the exported <key>.json helpers the
// run cache's persistence layer builds on: write, read back, exact match,
// and os.IsNotExist-compatible misses.
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
	// Overwrite is atomic and last-writer-wins.
	rec.Result.WallTime++
	if err := WriteRecording(dir, &rec); err != nil {
		t.Fatal(err)
	}
	got, err = ReadRecording(dir, spec.Key())
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.WallTime != rec.Result.WallTime {
		t.Fatal("rewrite not visible")
	}
}

func TestReplayerRejectsUnrecordedSpec(t *testing.T) {
	rep := &Replayer{Dir: t.TempDir()}
	_, err := rep.Run(context.Background(), testRunSpec(t, 99))
	if err == nil || !strings.Contains(err.Error(), "no recording") {
		t.Fatalf("want a no-recording error, got %v", err)
	}
}

func TestReplayerRejectsSinkOnUntracedRecording(t *testing.T) {
	dir := t.TempDir()
	rec := &Recorder{Inner: Simulator{}, Dir: dir}
	spec := testRunSpec(t, 6)
	if _, err := rec.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	traced := spec
	traced.Trace = &captureSink{}
	_, err := (&Replayer{Dir: dir}).Run(context.Background(), traced)
	if err == nil || !strings.Contains(err.Error(), "without tracing") {
		t.Fatalf("want a without-tracing error, got %v", err)
	}
}

// TestReplayerRejectsMislabelledRecording: a well-formed recording filed
// under another spec's key must fail the replay, not serve the wrong result.
func TestReplayerRejectsMislabelledRecording(t *testing.T) {
	dir := t.TempDir()
	recorded, wanted := testRunSpec(t, 7), testRunSpec(t, 8)
	if _, err := (&Recorder{Inner: Simulator{}, Dir: dir}).Run(context.Background(), recorded); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, recorded.Key()+".json"), filepath.Join(dir, wanted.Key()+".json")); err != nil {
		t.Fatal(err)
	}
	_, err := (&Replayer{Dir: dir}).Run(context.Background(), wanted)
	if err == nil || !strings.Contains(err.Error(), "mislabelled") {
		t.Fatalf("want a mislabelled-recording error, got %v", err)
	}
}

func TestRecorderKeepsTracedRecording(t *testing.T) {
	dir := t.TempDir()
	rec := &Recorder{Inner: Simulator{}, Dir: dir}
	spec := testRunSpec(t, 4)
	traced := spec
	traced.Trace = &captureSink{}
	if _, err := rec.Run(context.Background(), traced); err != nil {
		t.Fatal(err)
	}
	// A later untraced run of the same spec must not clobber the events.
	if _, err := rec.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	replaySink := &captureSink{}
	traced.Trace = replaySink
	if _, err := (&Replayer{Dir: dir}).Run(context.Background(), traced); err != nil {
		t.Fatal(err)
	}
	if len(replaySink.events) == 0 {
		t.Fatal("untraced re-record dropped the traced recording's events")
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(matches) != 1 {
		t.Fatalf("want exactly one recording, got %d", len(matches))
	}
}

// TestRecorderRepairsBadRecording: an event-less record over a torn or
// mislabelled <key>.json must replace it, so the next replay serves the
// spec instead of failing on the file the record pass kept.
func TestRecorderRepairsBadRecording(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  string // file contents; %q is another spec's key
	}{
		{"torn", `{"key":%q,"result":{`},
		{"mislabelled", `{"key":%q,"seed":5}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := testRunSpec(t, 4)
			bad := fmt.Sprintf(tc.bad, testRunSpec(t, 5).Key())
			if err := os.WriteFile(filepath.Join(dir, spec.Key()+".json"), []byte(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			want, err := (&Recorder{Inner: Simulator{}, Dir: dir}).Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := (&Replayer{Dir: dir}).Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("replay after re-record: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed %+v, recorded %+v", got, want)
			}
		})
	}
}
