package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/core"
	"stellar/internal/llm"
	"stellar/internal/llm/simllm"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/procfs"
	"stellar/internal/runcache"
	"stellar/internal/sim"
	"stellar/internal/workload"
)

const (
	agentScale       = 0.05
	agentMaxAttempts = 5
	// Set-up tunes every family agentWarmupRounds times on the fixed seeds
	// 1..10, about a second of work, and checks each against the golden.
	// Measured ops start far above them and step by 1000, more than the +31
	// per attempt a tune adds to its seed, so no measured trial ever
	// repeats a key already on disk.
	agentWarmupRounds = 2
	agentSeedFloor    = 1_000_000
	agentSeedStep     = 1000
	// A run tunes a fixed number of times: about what a 2-vCPU host
	// completes in the measured seconds. A fixed count keeps the state the
	// run leaves in the program, and so its live heap, the same each run.
	agentOpsPerSecond = 8
)

//go:embed golden_agent.json
var goldenAgentJSON []byte

// agentGolden is what a warm-up tune of one family must reproduce.
type agentGolden struct {
	Seed       int64            `json:"seed"`
	BestConfig map[string]int64 `json:"best_config"`
	Speedup    float64          `json:"speedup"`
	Tokens     int              `json:"tokens"`
}

// agentSeed is the seed of measured op i: a pure function of the workload
// seed, distinct for every op of a run and from every warm-up seed.
func agentSeed(seed int64, i int) int64 {
	base := int64(rngFor(seed, streamAgent).Int63n(1 << 40))
	return agentSeedFloor + (base+int64(i))*agentSeedStep
}

// newEngine wires an engine the way the stellar CLI does.
func newEngine(client llm.Client, plat platform.Platform, seed int64) *core.Engine {
	return core.New(client, core.Options{
		Spec:          cluster.Default(),
		TuningModel:   simllm.Claude37,
		AnalysisModel: simllm.GPT4o,
		ExtractModel:  simllm.GPT4o,
		Scale:         agentScale,
		MaxAttempts:   agentMaxAttempts,
		Seed:          seed,
		Platform:      plat,
	})
}

// checkTune applies the per-op output checks: the loop ended within its
// attempt budget and its best config is no slower than the defaults.
func checkTune(res *core.TuneResult) (speedup float64, err error) {
	if n := len(res.History) - 1; n > agentMaxAttempts || n < 0 {
		return 0, fmt.Errorf("%s: %d attempts, budget %d", res.Workload, n, agentMaxAttempts)
	}
	speedup = res.History[0].WallTime / res.Best.WallTime
	if !(speedup >= 1) {
		return 0, fmt.Errorf("%s: best speedup %g < 1", res.Workload, speedup)
	}
	return speedup, nil
}

// warmupAgent tunes every family agentWarmupRounds times on fixed seeds
// over dir and returns what each tune produced, round by round, for
// comparison with the golden. A failed tune leaves a zero entry.
func warmupAgent(ctx context.Context, dir string) map[string][]agentGolden {
	families := workload.Benchmarks()
	out := map[string][]agentGolden{}
	for r := 0; r < agentWarmupRounds; r++ {
		for f, family := range families {
			seed := int64(r*len(families) + f + 1)
			client := &timedLLM{inner: simllm.New(simllm.GPT4o)}
			cache := runcache.NewWithOptions(platform.Simulator{}, runcache.Options{Dir: dir})
			res, err := newEngine(client, cache, seed).Tune(ctx, family)
			var speedup float64
			if err == nil {
				speedup, err = checkTune(res)
			}
			var g agentGolden
			if err != nil {
				fmt.Printf("warm-up %s seed %d: %v\n", family, seed, err)
			} else {
				_, tokens, _ := client.snapshot()
				g = agentGolden{Seed: seed, BestConfig: res.BestCfg, Speedup: speedup, Tokens: tokens}
			}
			out[family] = append(out[family], g)
		}
	}
	return out
}

// goldenMismatch lists the families whose warm-up differs from the golden.
func goldenMismatch(got map[string][]agentGolden) ([]string, error) {
	var want map[string][]agentGolden
	if err := json.Unmarshal(goldenAgentJSON, &want); err != nil {
		return nil, fmt.Errorf("golden_agent.json: %w", err)
	}
	var bad []string
	for _, family := range workload.Benchmarks() {
		if !reflect.DeepEqual(got[family], want[family]) {
			bad = append(bad, family)
		}
	}
	return bad, nil
}

// agentTrace accumulates the layer breakdown of traced tunes.
type agentTrace struct {
	tunes                                        int
	extract, tune, llmBusy, above, aboveTraced   time.Duration
	sim, simTraced, key, render, catalog         time.Duration
	calls, tokens, attempts, tracedRuns, simRuns int
	misses, events                               int
	catalogAlloc                                 uint64
}

// tuneOnce runs one measured tune over a fresh engine and a fresh cache on
// the shared dir, as one `stellar -cache-dir` invocation does, and returns
// how long it took. With tr set it times every layer and adds them to tr.
func tuneOnce(ctx context.Context, family string, seed int64, dir string, tr *agentTrace) (time.Duration, error) {
	start := time.Now()
	if tr == nil {
		cache := runcache.NewWithOptions(platform.Simulator{}, runcache.Options{Dir: dir})
		res, err := newEngine(simllm.New(simllm.GPT4o), cache, seed).Tune(ctx, family)
		took := time.Since(start)
		if err == nil {
			_, err = checkTune(res)
		}
		return took, err
	}

	ev0 := sim.TotalFired()
	below := &timedPlatform{inner: platform.Simulator{}}
	cache := runcache.NewWithOptions(below, runcache.Options{Dir: dir})
	above := &timedPlatform{inner: cache}
	client := &timedLLM{inner: simllm.New(simllm.GPT4o)}
	eng := newEngine(client, above, seed)
	if _, err := eng.Tunables(ctx); err != nil {
		return 0, err
	}
	extract := time.Since(start)
	_, _, llm0 := client.snapshot()
	res, err := eng.Tune(ctx, family)
	took := time.Since(start)
	events := sim.TotalFired() - ev0
	if err == nil {
		_, err = checkTune(res)
	}
	if err != nil {
		return took, err
	}

	calls, tokens, llm1 := client.snapshot()
	_, aboveBusy, tracedRuns, aboveTraced := above.snapshot()
	simRuns, simBusy, _, simTraced := below.snapshot()
	tr.tunes++
	tr.extract += extract
	tr.tune += took - extract
	tr.llmBusy += llm1 - llm0
	tr.above += aboveBusy
	tr.aboveTraced += aboveTraced
	tr.sim += simBusy
	tr.simTraced += simTraced
	tr.calls += calls
	tr.tokens += tokens
	tr.attempts += len(res.History) - 1
	tr.tracedRuns += tracedRuns
	tr.simRuns += simRuns
	tr.misses += int(cache.Stats().Misses)
	tr.events += int(events)

	// Layers the engine calls inside Tune, timed again on the side with
	// the tune's own inputs. A copy of the workload keys as a fresh build
	// does: the digest memo is keyed by pointer.
	if spec := above.last; spec.Workload != nil {
		wc := *spec.Workload
		spec.Workload = &wc
		t0 := time.Now()
		spec.Key()
		tr.key += time.Since(t0)
	}
	tree := procfs.New(params.Lustre())
	t0 := time.Now()
	tree.SetDefaults()
	if err := tree.Apply(res.BestCfg); err != nil {
		return took, err
	}
	tree.Snapshot()
	tr.render += time.Since(t0)
	a0 := totalAlloc()
	t0 = time.Now()
	if _, err := workload.Catalog(family, cluster.Default().TotalRanks(), agentScale); err != nil {
		return took, err
	}
	tr.catalog += time.Since(t0)
	tr.catalogAlloc += totalAlloc() - a0
	return took, nil
}

func runAgent(ctx context.Context, cfg runConfig) (*outcome, error) {
	families := workload.Benchmarks()
	n := setups
	if cfg.trace {
		n = 1
	}
	var (
		dir      string
		setup    setupTimes
		goldenOK = true
	)
	for k := 0; k < n; k++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = os.MkdirTemp(cfg.work, "agent-tune-"); err != nil {
			return nil, err
		}
		liveHeapMB() // every set-up starts from a collected heap
		start := time.Now()
		got := warmupAgent(ctx, dir)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		setup.add(time.Since(start))
		bad, err := goldenMismatch(got)
		if err != nil {
			return nil, err
		}
		if len(bad) > 0 {
			goldenOK = false
			fmt.Printf("golden mismatch: %v\n", bad)
		}
		fmt.Printf("phase setup %d: attempted=%d mismatched=%v took=%.3fs heap=%.1fMiB\n", k, len(families)*agentWarmupRounds, bad, setup.secs[k], setup.heaps[k])
	}

	// Whole rounds of the five families, so every run weighs them equally.
	// Traced runs alternate untraced and traced ops over double rounds, so
	// each family is measured both ways and the difference is the tracing
	// overhead.
	round := len(families)
	if cfg.trace {
		round *= 2
	}
	count := int(cfg.seconds.Seconds()*agentOpsPerSecond+float64(round)-1) / round * round
	var (
		tr                 agentTrace
		all, plain, traced []sample
	)
	p0 := readProc(cfg.trace)
	for i := 0; i < count; i++ {
		var opTrace *agentTrace
		if cfg.trace && i%2 == 1 {
			opTrace = &tr
		}
		took, err := tuneOnce(ctx, families[i%len(families)], agentSeed(cfg.seed, i), dir, opTrace)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			fmt.Printf("op %d: %v\n", i, err)
		}
		s := sample{lat: took, ok: err == nil}
		all = append(all, s)
		if opTrace != nil {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	p1 := readProc(cfg.trace)

	t := summarize(all)
	fmt.Printf("phase measured: attempted=%d failed=%d tail=%s\n", t.attempted, t.failed, t.tailText())
	o := &outcome{
		correct:   t.failed == 0 && goldenOK,
		attempted: t.attempted,
		failed:    t.failed,
		metrics:   map[string]float64{},
	}
	if !cfg.trace {
		o.metrics = endToEndMetrics(t, p1.cpu-p0.cpu, liveHeapMB(), setup)
		return o, nil
	}

	for _, d := range perLayer {
		o.metrics[d.name] = 0
	}
	nt := float64(tr.tunes)
	perTune := func(d time.Duration) float64 { return ratio(ms(d), nt) }
	o.metrics["rag.extract_ms"] = perTune(tr.extract)
	o.metrics["llm.calls_per_tune"] = ratio(float64(tr.calls), nt)
	o.metrics["llm.tokens_per_tune"] = ratio(float64(tr.tokens), nt)
	o.metrics["llm.call_ms"] = ratio(ms(tr.llmBusy), float64(tr.calls))
	o.metrics["agents.self_ms"] = perTune(tr.tune - tr.llmBusy - tr.above)
	o.metrics["agents.attempts_per_tune"] = ratio(float64(tr.attempts), nt)
	o.metrics["darshan.traced_run_ms"] = ratio(ms(tr.aboveTraced), float64(tr.tracedRuns))
	// Untraced runs above the cache minus the simulations below it: the
	// key and the write-through of each miss.
	o.metrics["runcache.miss_overhead_ms"] = ratio(ms((tr.above-tr.aboveTraced)-(tr.sim-tr.simTraced)), float64(tr.misses))
	o.metrics["lustre.run_ms"] = ratio(ms(tr.sim), float64(tr.simRuns))
	o.metrics["sim.events_per_run"] = ratio(float64(tr.events), float64(tr.simRuns))
	o.metrics["sim.mevents_per_s"] = ratio(float64(tr.events), tr.sim.Seconds()) / 1e6
	o.metrics["platform.key_us"] = usPer(tr.key, nt)
	o.metrics["procfs.render_us"] = usPer(tr.render, nt)
	o.metrics["workload.catalog_ms"] = perTune(tr.catalog)
	o.metrics["workload.catalog_alloc_mb"] = ratio(float64(tr.catalogAlloc)/(1<<20), nt)
	o.metrics["process.allocs_per_op"] = ratio(float64(p1.mallocs-p0.mallocs), float64(t.attempted-t.failed))
	o.metrics["process.gc_cpu_frac"] = ratio(p1.gcCPU-p0.gcCPU, (p1.cpu - p0.cpu).Seconds())
	o.metrics["trace.overhead_ms"] = ms(summarize(traced).p50 - summarize(plain).p50)
	return o, nil
}
