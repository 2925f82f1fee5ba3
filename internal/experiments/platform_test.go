package experiments

import (
	"context"
	"sync"
	"testing"

	"stellar/internal/platform"
	"stellar/internal/runcache"
)

// countingPlatform counts backend runs per content-addressed key. Traced
// runs are tallied separately: they legitimately bypass the cache, so the
// one-run-per-unique-spec guarantee only covers sinkless trials.
type countingPlatform struct {
	inner platform.Platform

	mu     sync.Mutex
	calls  map[string]int
	traced map[string]int
}

func newCountingPlatform() *countingPlatform {
	return &countingPlatform{inner: platform.Simulator{}, calls: map[string]int{}, traced: map[string]int{}}
}

func (c *countingPlatform) Name() string { return "count(" + c.inner.Name() + ")" }

func (c *countingPlatform) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	key := spec.Key()
	c.mu.Lock()
	if spec.Trace != nil {
		c.traced[key]++
	} else {
		c.calls[key]++
	}
	c.mu.Unlock()
	return c.inner.Run(ctx, spec)
}

// TestFigureRegenerationRunsEachSpecOnce is the headline caching guarantee:
// with a shared run cache, regenerating a figure issues exactly one
// simulator run per unique (workload, config, seed) RunSpec — and a second
// full regeneration issues none at all, serving entirely from the cache.
func TestFigureRegenerationRunsEachSpecOnce(t *testing.T) {
	counter := newCountingPlatform()
	cache := runcache.New(counter, 0)
	cfg := unitCfg()
	cfg.Platform = cache

	ctx := context.Background()
	first, err := Fig8Ablation(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for key, n := range counter.calls {
		if n != 1 {
			t.Fatalf("spec %s simulated %d times within one regeneration, want 1", key[:12], n)
		}
	}
	statsAfterFirst := cache.Stats()

	second, err := Fig8Ablation(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for key, n := range counter.calls {
		if n != 1 {
			t.Fatalf("spec %s simulated %d times across two regenerations, want 1", key[:12], n)
		}
	}
	stats := cache.Stats()
	if stats.Misses != statsAfterFirst.Misses {
		t.Fatalf("second regeneration missed the cache: %+v then %+v", statsAfterFirst, stats)
	}
	if stats.Hits <= statsAfterFirst.Hits {
		t.Fatalf("second regeneration reported no cache hits: %+v then %+v", statsAfterFirst, stats)
	}
	if first.Render() != second.Render() {
		t.Fatal("cached regeneration changed the table")
	}
}

// TestFigureTableRoundTripsThroughReplay is the record/replay acceptance
// check: a figure table produced against the live simulator is byte-
// identical when regenerated purely from its recorded run set, with no
// simulator in the loop.
func TestFigureTableRoundTripsThroughReplay(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	liveCfg := unitCfg()
	liveCfg.Platform = runcache.NewWithOptions(platform.Simulator{}, runcache.Options{Dir: dir, Traces: true})
	live, err := Fig8Ablation(ctx, liveCfg)
	if err != nil {
		t.Fatal(err)
	}

	replayCfg := unitCfg()
	replayCfg.Platform = runcache.NewWithOptions(platform.NoRecording(dir), runcache.Options{Dir: dir, Traces: true})
	replayed, err := Fig8Ablation(ctx, replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if live.Render() != replayed.Render() {
		t.Fatalf("replayed table diverged from the live one:\nlive:\n%s\nreplayed:\n%s",
			live.Render(), replayed.Render())
	}
}

// TestCaseStudyRoundTripsThroughReplay extends the round-trip to the traced
// path: Figure 10 consumes the Darshan events of the initial run, so a
// byte-identical replay proves recorded trace events drive the analysis
// exactly like live ones.
func TestCaseStudyRoundTripsThroughReplay(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	liveCfg := unitCfg()
	liveCfg.Platform = runcache.NewWithOptions(platform.Simulator{}, runcache.Options{Dir: dir, Traces: true})
	live, err := Fig10CaseStudy(ctx, liveCfg)
	if err != nil {
		t.Fatal(err)
	}

	replayCfg := unitCfg()
	replayCfg.Platform = runcache.NewWithOptions(platform.NoRecording(dir), runcache.Options{Dir: dir, Traces: true})
	replayed, err := Fig10CaseStudy(ctx, replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if live != replayed {
		t.Fatal("replayed case study diverged from the live one")
	}
}
