package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"stellar/internal/platform"
)

var update = flag.Bool("update", false, "rewrite golden_agent.json from the current program")

func TestSeededGeneration(t *testing.T) {
	gen := func(seed int64) []any {
		var agents []int64
		for i := 0; i < 8; i++ {
			agents = append(agents, agentSeed(seed, i))
		}
		return []any{
			zipfPicks(seed, 500, 16, zipfS),
			uniformPicks(seed, 500, diskSpecs),
			poissonDue(seed, warmRate, 2*time.Second),
			agents,
		}
	}
	a, b, c := gen(7), gen(7), gen(8)
	names := []string{"zipf picks", "uniform picks", "poisson gaps", "agent seeds"}
	for i, name := range names {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("%s: same seed gave different sequences", name)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

func TestAgentSeedsNeverRepeat(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := agentSeed(3, i)
		// A tune's trials run at seed + 31*attempt; they must stay clear of
		// the next op and of the warm-up seeds.
		if seen[s] || s < agentSeedFloor || s+31*agentMaxAttempts >= agentSeed(3, i+1) {
			t.Fatalf("op %d: seed %d collides", i, s)
		}
		seen[s] = true
	}
}

func TestPoissonRate(t *testing.T) {
	due := poissonDue(1, warmRate, 10*time.Second)
	if n := len(due); n != int(10*warmRate) {
		t.Errorf("%d arrivals in 10s at %g/s", n, warmRate)
	}
	// Gaps of a Poisson process are exponential: mean and standard
	// deviation both 1/rate.
	var sum, sq float64
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		g := (due[i] - due[i-1]).Seconds()
		sum += g
		sq += g * g
	}
	n := float64(len(due) - 1)
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if want := 1 / warmRate; math.Abs(mean-want) > 0.05*want || math.Abs(sd-want) > 0.1*want {
		t.Errorf("gaps: mean %g sd %g, want both near %g", mean, sd, want)
	}
}

func TestZipfPopularityIsFixed(t *testing.T) {
	count := make([]int, 16)
	for _, p := range zipfPicks(11, 20000, 16, zipfS) {
		count[p]++
	}
	for i := 1; i < 4; i++ {
		if count[i] >= count[i-1] {
			t.Errorf("spec %d picked %d times, more than spec %d (%d)", i, count[i], i-1, count[i-1])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{10, 50, 5},
		{80, 75, 20},
		{100, 90, 10},
		{1000, 99, 10},
		{4000, 99, 40},
		{20000, 99.9, 20},
	} {
		pct, beyond := tailPercentile(c.n)
		if pct != c.pct || beyond != c.beyond {
			t.Errorf("n=%d: p%g with %d beyond, want p%g with %d", c.n, pct, beyond, c.pct, c.beyond)
		}
	}
}

func TestFailedOpsMissTheTail(t *testing.T) {
	// 100 ops at 1..100ms; the 15 slowest fail instead.
	samples := make([]sample, 100)
	for i := range samples {
		samples[i] = sample{lat: time.Duration(i+1) * time.Millisecond, ok: i < 85}
	}
	got := summarize(samples)
	if got.attempted != 100 || got.failed != 15 {
		t.Fatalf("attempted %d failed %d, want 100 and 15", got.attempted, got.failed)
	}
	if got.tailPct != 90 || got.tail != failedLatency {
		t.Errorf("tail p%g = %v, want p90 at the failed latency", got.tailPct, got.tail)
	}
	if got.p50 != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got.p50)
	}
}

// A run in which every op failed must still print its result line, with
// correct false and finite metrics.
func TestAllFailedRunReports(t *testing.T) {
	tl := summarize(make([]sample, 50))
	if tl.attempted != 50 || tl.failed != 50 {
		t.Fatalf("attempted %d failed %d, want 50 and 50", tl.attempted, tl.failed)
	}
	o := &outcome{attempted: tl.attempted, failed: tl.failed,
		metrics: endToEndMetrics(tl, time.Second, 1, setupTimes{secs: []float64{1}})}
	r, err := o.render(false)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["cpu_ms_per_op"].Value; got != 0 {
		t.Errorf("cpu_ms_per_op = %g with no op completed, want 0", got)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Errorf("result line does not marshal: %v", err)
	}
	o.metrics["p50_ms"] = math.Inf(1)
	if _, err := o.render(false); err == nil {
		t.Error("render accepted an infinite metric")
	}
}

func TestOpenLoopCountsRefusedOps(t *testing.T) {
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	samples := openLoop(context.Background(), due, 2, func(_ context.Context, i int) bool { return i%4 != 0 })
	got := summarize(samples)
	if got.attempted != 40 || got.failed != 10 {
		t.Errorf("attempted %d failed %d, want 40 and 10", got.attempted, got.failed)
	}
	for i, s := range samples {
		if s.ok && s.lat < s.late {
			t.Errorf("op %d: latency %v shorter than its lateness %v", i, s.lat, s.late)
		}
	}
}

func TestEvaluateRefusalIsAFailure(t *testing.T) {
	e, err := startEval(false, warmSpecs()[:1], t.TempDir(), platform.Simulator{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.specs = [][]byte{[]byte(`{"workload":"nope"}`)}
	e.golden = [][]byte{nil}
	if ok, mismatch := e.post(context.Background(), 0); ok || mismatch {
		t.Errorf("a 400 reply counted as ok=%v mismatch=%v", ok, mismatch)
	}
}

func TestAgentGolden(t *testing.T) {
	got := warmupAgent(context.Background(), t.TempDir())
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden_agent.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	bad, err := goldenMismatch(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Errorf("warm-up differs from golden_agent.json for %v (rerun with -update if the change is intended)", bad)
	}
}

// BENCHMARK.json at the repository root must describe what the program
// reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: listed %s (%s), program reports %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
