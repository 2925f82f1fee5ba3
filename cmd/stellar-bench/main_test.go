package main

import (
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"stellar/internal/cluster/peering"
	"stellar/internal/experiments"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/server"
)

// testBench is a bench at CI smoke size: two reps at scale 0.05 over the
// live simulator, as with -parallel 4. A non-empty cacheDir stacks a
// persistent run cache, as -cache-dir does; otherwise the served scenarios
// build their own.
func testBench(t *testing.T, cacheDir string) *bench {
	t.Helper()
	b := &bench{parallel: 4, out: io.Discard}
	var plat platform.Platform = platform.Simulator{}
	if cacheDir != "" {
		b.cache = runcache.NewWithOptions(plat, runcache.Options{Dir: cacheDir})
		plat = b.cache
	}
	b.cfg = experiments.Config{Reps: 2, Scale: 0.05, Seed: 7, Platform: plat}.Defaults()
	return b
}

// only runs one scenario under b's -parallel budget, as main does, and
// returns its single record.
func only(t *testing.T, b *bench, run func(context.Context, int) error, n int) benchRecord {
	t.Helper()
	if err := run(pool.WithBudget(context.Background(), pool.NewBudget(b.parallel)), n); err != nil {
		t.Fatal(err)
	}
	if len(b.records) != 1 {
		t.Fatalf("got %d records, want 1", len(b.records))
	}
	rec := b.records[0]
	if rec.Cache == nil || rec.RPS <= 0 || rec.Requests != n {
		t.Fatalf("record lacks its cache delta, rate or request count: %+v", rec)
	}
	return rec
}

// The served scenarios hold the counter contracts CI's jq lines assert on
// their BENCH_*.json records.

func TestServeScenarioSimulatesEachRepOnce(t *testing.T) {
	b := testBench(t, "")
	rec := only(t, b, b.servePass, 8)
	if rec.Cache.Misses != uint64(b.cfg.Reps) {
		t.Fatalf("%d identical requests missed %d times, want %d (one per rep): %s", rec.Requests, rec.Cache.Misses, b.cfg.Reps, rec.Cache)
	}
}

func TestSweepScenarioRunsEveryCell(t *testing.T) {
	b := testBench(t, "")
	rec := only(t, b, b.sweepPass, 4)
	if rec.Cache.Misses == 0 {
		t.Fatalf("a grid of distinct cells never missed: %s", rec.Cache)
	}
}

// TestTuneScenarioIsReproducible: a search simulates something but less
// than its exhaustive pool, and the same seeded search in a fresh process
// over the same cache dir simulates nothing and lands on the same winner.
func TestTuneScenarioIsReproducible(t *testing.T) {
	const candidates = 4
	dir := t.TempDir()
	b := testBench(t, dir)
	cold := only(t, b, b.tunePass, candidates)
	if m := cold.Cache.Misses; m == 0 || m >= uint64(candidates*b.cfg.Reps) {
		t.Fatalf("search missed %d times, want in (0, %d)", m, candidates*b.cfg.Reps)
	}
	b = testBench(t, dir)
	warm := only(t, b, b.tunePass, candidates)
	if warm.Cache.Misses != 0 || warm.Cache.DiskHits == 0 {
		t.Fatalf("warm search over the same cache dir: %s, want 0 misses and disk hits", warm.Cache)
	}
	if !reflect.DeepEqual(warm.Winner, cold.Winner) || warm.Rounds != cold.Rounds || warm.Evaluations != cold.Evaluations {
		t.Fatalf("warm search differs: winner %v rounds %d evaluations %d, cold: winner %v rounds %d evaluations %d",
			warm.Winner, warm.Rounds, warm.Evaluations, cold.Winner, cold.Rounds, cold.Evaluations)
	}
}

// TestUnknownFigureNamesKnownIDs: -fig with a typo says what it accepts.
func TestUnknownFigureNamesKnownIDs(t *testing.T) {
	b := testBench(t, "")
	err := b.run(context.Background(), []scenario{{"nope", 1, b.figurePasses("nope")}})
	if err == nil {
		t.Fatal("unknown experiment ran")
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error %q does not name known id %s", err, id)
		}
	}
}

// TestFleetStatsSumsEveryCounter: a cluster record reports each counter
// its nodes saw — none dropped from the sum, none left unclamped.
func TestFleetStatsSumsEveryCounter(t *testing.T) {
	node := server.StatsResponse{Cluster: &peering.Stats{}}
	fill(reflect.ValueOf(&node.Cache).Elem())
	fill(reflect.ValueOf(node.Cluster).Elem())
	var fleet fleetStats
	fleet.add(node)
	fleet.add(node)
	sameNumbers(t, "cache", reflect.ValueOf(fleet.cache), reflect.ValueOf(node.Cache), 2)
	sameNumbers(t, "cluster", reflect.ValueOf(fleet.cluster), reflect.ValueOf(*node.Cluster), 2)

	var once fleetStats
	once.add(node)
	d := once.delta(fleet)
	if d.cache.Misses != 0 || d.cluster.Forwards != 0 {
		t.Fatalf("delta against a larger snapshot wrapped: %+v", d)
	}
	d = fleet.delta(once)
	if d.cache.Bypassed != node.Cache.Bypassed || d.cluster.ServedForwards != node.Cluster.ServedForwards {
		t.Fatalf("delta = %+v, want one node's worth", d)
	}
}

// fill sets every numeric field of struct v to a distinct non-zero value.
func fill(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Int:
			f.SetInt(int64(i + 1))
		}
	}
}

// sameNumbers checks every numeric field of got is k times want's.
func sameNumbers(t *testing.T, what string, got, want reflect.Value, k int) {
	t.Helper()
	for i := 0; i < got.NumField(); i++ {
		g, w := got.Field(i), want.Field(i)
		switch g.Kind() {
		case reflect.Uint64:
			if g.Uint() != uint64(k)*w.Uint() {
				t.Errorf("%s.%s summed to %d, want %d", what, got.Type().Field(i).Name, g.Uint(), uint64(k)*w.Uint())
			}
		case reflect.Int:
			if g.Int() != int64(k)*w.Int() {
				t.Errorf("%s.%s summed to %d, want %d", what, got.Type().Field(i).Name, g.Int(), int64(k)*w.Int())
			}
		}
	}
}
