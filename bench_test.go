// Package stellar's root benchmark harness: one testing.B benchmark per
// paper table/figure (regenerating the artifact each iteration) plus
// substrate micro-benchmarks and the parallel-vs-serial evaluation
// comparison. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use a reduced workload scale and repetition count so a full
// sweep stays in the minutes; `go run ./cmd/stellar-bench` runs the
// full-scale versions and prints the tables.
package stellar

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/core"
	"stellar/internal/experiments"
	"stellar/internal/llm/simllm"
	"stellar/internal/lustre"
	"stellar/internal/manual"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/rag"
	"stellar/internal/runcache"
	"stellar/internal/search"
	"stellar/internal/server"
	"stellar/internal/sim"
	"stellar/internal/stats"
	"stellar/internal/workload"
)

// reportEvents attaches kernel throughput to a benchmark that drives the
// simulator: discrete events fired per wall-clock second over the timed
// section, measured from the process-wide counter. Call with sim.TotalFired()
// captured right after b.ResetTimer.
func reportEvents(b *testing.B, start uint64) {
	b.Helper()
	if d := sim.TotalFired() - start; d > 0 {
		b.ReportMetric(float64(d)/b.Elapsed().Seconds(), "events/sec")
	}
}

// benchCfg keeps each figure regeneration fast enough to iterate.
func benchCfg() experiments.Config {
	return experiments.Config{Reps: 3, Scale: 0.1, Seed: 7}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkFig2Hallucination regenerates Figure 2 (parameter facts with and
// without RAG grounding).
func BenchmarkFig2Hallucination(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig5TuningPerformance regenerates Figure 5 (default vs expert vs
// STELLAR wall times across the five benchmarks).
func BenchmarkFig5TuningPerformance(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6RuleSetInterpolation regenerates Figure 6 (per-iteration
// speedups with and without the global rule set).
func BenchmarkFig6RuleSetInterpolation(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7RuleSetExtrapolation regenerates Figure 7 (real applications
// tuned with benchmark-learned rules).
func BenchmarkFig7RuleSetExtrapolation(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8Ablation regenerates Figure 8 (No Descriptions / No Analysis
// ablations on MDWorkbench_8K).
func BenchmarkFig8Ablation(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9ModelComparison regenerates Figure 9 (three models as the
// Tuning Agent on IOR_16M).
func BenchmarkFig9ModelComparison(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkCostTable regenerates the §5.7 token-usage table.
func BenchmarkCostTable(b *testing.B) { runExperiment(b, "cost") }

// BenchmarkIterationCost regenerates the iteration-cost comparison against
// traditional autotuners.
func BenchmarkIterationCost(b *testing.B) { runExperiment(b, "iters") }

// BenchmarkFig10CaseStudy regenerates the Figure 10 tuning timeline.
func BenchmarkFig10CaseStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Fig10CaseStudy(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty case study")
		}
	}
}

// ----------------------------------------------------------------------
// Parallel vs serial evaluation.
// ----------------------------------------------------------------------

// benchEvaluate measures Engine.Evaluate at the paper's eight-rep protocol
// under a budget of parallel. Compare BenchmarkEvaluateSerial with
// BenchmarkEvaluateParallel: on a multi-core box the parallel variant's
// wall-clock scales down with cores while producing bit-identical
// summaries (determinism is asserted in internal/core's tests).
func benchEvaluate(b *testing.B, parallel int) {
	b.Helper()
	eng := core.New(simllm.New(simllm.GPT4o), core.Options{
		Spec: cluster.Default(), TuningModel: simllm.Claude37,
		AnalysisModel: simllm.GPT4o, ExtractModel: simllm.GPT4o,
		Scale: 0.25,
	})
	req := core.EvalRequest{Workload: "IOR_16M", Config: params.DefaultConfig(eng.Registry()), Reps: 8, SeedBase: 99}
	ctx := pool.WithBudget(context.Background(), pool.NewBudget(parallel))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Evaluate(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateSerial is the strict serial reference path.
func BenchmarkEvaluateSerial(b *testing.B) { benchEvaluate(b, 1) }

// BenchmarkEvaluateParallel fans the eight repetitions over all cores.
func BenchmarkEvaluateParallel(b *testing.B) { benchEvaluate(b, runtime.GOMAXPROCS(0)) }

// benchEvaluateWithPlatform measures repeated Evaluate calls on the same
// configuration — the figure drivers' baseline pattern — against the given
// platform backend.
func benchEvaluateWithPlatform(b *testing.B, p platform.Platform) {
	b.Helper()
	eng := core.New(simllm.New(simllm.GPT4o), core.Options{
		Spec: cluster.Default(), TuningModel: simllm.Claude37,
		AnalysisModel: simllm.GPT4o, ExtractModel: simllm.GPT4o,
		Scale: 0.25, Platform: p,
	})
	req := core.EvalRequest{Workload: "IOR_16M", Config: params.DefaultConfig(eng.Registry()), Reps: 8, SeedBase: 99}
	b.ReportAllocs()
	b.ResetTimer()
	start := sim.TotalFired()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Evaluate(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, start)
}

// BenchmarkEvaluateUncached re-simulates the eight repetitions on every
// Evaluate call — what every baseline measurement paid before the run
// cache. The workload build and the config snapshot are shared across the
// eight, as on the /v1/evaluate, /v1/sweeps, and /v1/tune paths.
func BenchmarkEvaluateUncached(b *testing.B) {
	benchEvaluateWithPlatform(b, platform.Simulator{})
}

// BenchmarkEvaluateCached serves repeated configurations from the
// content-addressed run cache: after the first iteration every trial is a
// hit, so per-iteration cost collapses to hashing the RunSpec. Compare with
// BenchmarkEvaluateUncached for the figure-regeneration dedup win.
func BenchmarkEvaluateCached(b *testing.B) {
	benchEvaluateWithPlatform(b, runcache.New(platform.Simulator{}, 0))
}

// BenchmarkServeEvaluate measures tuning-as-a-service throughput: repeated
// identical HTTP evaluate requests against an in-process stellar-serve
// handler. After the first iteration every trial is a cache hit, so this is
// the steady-state serving cost — HTTP round trip + content-addressed key
// hash + LRU lookup — to compare against BenchmarkEvaluateCached (the same
// dedup without the HTTP layer) and BenchmarkEvaluateUncached. stellar-bench
// -serve-requests N records the same measurement into BENCH_*.json.
func BenchmarkServeEvaluate(b *testing.B) {
	srv, err := server.New(server.Options{Scale: 0.25, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"workload":"IOR_16M","reps":8,"seed":99}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
	}
}

// benchServeConcurrent is BenchmarkServeEvaluate under 16-way client
// concurrency: 16 goroutines fire identical evaluate requests at one
// in-process server, so after warm-up every request is a cache lookup and
// the benchmark measures lock contention on the shared cache itself.
func benchServeConcurrent(b *testing.B, shards int) {
	b.Helper()
	srv, err := server.New(server.Options{
		Scale: 0.25, Workers: 32, Backlog: 64,
		Cache: runcache.NewWithOptions(platform.Simulator{}, runcache.Options{Shards: shards}),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"workload":"IOR_16M","reps":8,"seed":99}`
	post := func() error {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil { // warm the cache outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = post()
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServeEvaluateConcurrent is the sharded cache under the server's
// 16-way fan-out; compare with BenchmarkServeEvaluateConcurrentSingleShard
// (the old single-mutex layout) to see what sharding buys under contention.
func BenchmarkServeEvaluateConcurrent(b *testing.B) { benchServeConcurrent(b, 0) }

// BenchmarkServeEvaluateConcurrentSingleShard forces every key onto one
// mutex — the pre-sharding baseline the sharded cache must never lose to.
func BenchmarkServeEvaluateConcurrentSingleShard(b *testing.B) { benchServeConcurrent(b, 1) }

// BenchmarkFig8AblationParallel regenerates Figure 8 with its three
// independent arms fanned out under a budget of all cores, the
// experiment-level counterpart to BenchmarkEvaluateParallel.
func BenchmarkFig8AblationParallel(b *testing.B) {
	e, ok := experiments.Lookup("fig8")
	if !ok {
		b.Fatal("fig8 experiment missing")
	}
	cfg := benchCfg()
	ctx := pool.WithBudget(context.Background(), pool.NewBudget(runtime.GOMAXPROCS(0)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------------------------
// Substrate micro-benchmarks.
// ----------------------------------------------------------------------

// BenchmarkSimulatorIOR16M measures one simulated IOR_16M execution.
func BenchmarkSimulatorIOR16M(b *testing.B) {
	spec := cluster.Default()
	w := workload.IOR16M(spec.TotalRanks(), 0.25)
	cfg := params.DefaultConfig(params.Lustre())
	b.ReportAllocs()
	b.ResetTimer()
	start := sim.TotalFired()
	for i := 0; i < b.N; i++ {
		if _, err := lustre.Run(context.Background(), w, lustre.Options{Spec: spec, Config: cfg, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, start)
}

// BenchmarkSimulatorMDWorkbench measures one simulated MDWorkbench_8K
// execution (the metadata-heavy event-count worst case).
func BenchmarkSimulatorMDWorkbench(b *testing.B) {
	spec := cluster.Default()
	w := workload.MDWorkbench8K(spec.TotalRanks(), 0.1)
	cfg := params.DefaultConfig(params.Lustre())
	b.ReportAllocs()
	b.ResetTimer()
	start := sim.TotalFired()
	for i := 0; i < b.N; i++ {
		if _, err := lustre.Run(context.Background(), w, lustre.Options{Spec: spec, Config: cfg, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	reportEvents(b, start)
}

// BenchmarkRAGIndexBuild measures chunking plus embedding of the manual.
func BenchmarkRAGIndexBuild(b *testing.B) {
	text := manual.FullText(params.Lustre())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks := rag.ChunkText(text, 1024, 20)
		rag.NewIndex(rag.NewHashedTFIDF(384, chunks), chunks)
	}
}

// BenchmarkOfflineExtraction measures the complete offline phase.
func BenchmarkOfflineExtraction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := core.New(simllm.New(simllm.GPT4o), core.Options{
			Spec: cluster.Default(), TuningModel: simllm.Claude37,
			AnalysisModel: simllm.GPT4o, ExtractModel: simllm.GPT4o,
		})
		if _, err := eng.Offline(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompleteTuningRun measures one end-to-end tuning run (IOR_16M).
func BenchmarkCompleteTuningRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := core.New(simllm.New(simllm.GPT4o), core.Options{
			Spec: cluster.Default(), TuningModel: simllm.Claude37,
			AnalysisModel: simllm.GPT4o, ExtractModel: simllm.GPT4o,
			Scale: 0.1, Seed: int64(i + 1),
		})
		if _, err := eng.Tune(context.Background(), "IOR_16M"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentTuneMix runs the simulator mix of perfbench's agent-tune
// workload: each op tunes the next of the five workload.Benchmarks()
// families at scale 0.05 on a fresh engine over a fresh write-through run
// cache on one shared directory. Seeds step by 1000 per op, so no trial
// repeats a key already on disk and every trial simulates. It reports the
// simulation events per tune, and `-cpuprofile` on it profiles the tuning
// loop's kernel share without perfbench.
func BenchmarkAgentTuneMix(b *testing.B) {
	families := workload.Benchmarks()
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	start := sim.TotalFired()
	for i := 0; i < b.N; i++ {
		cache := runcache.NewWithOptions(platform.Simulator{}, runcache.Options{Dir: dir})
		eng := core.New(simllm.New(simllm.GPT4o), core.Options{
			Spec: cluster.Default(), TuningModel: simllm.Claude37,
			AnalysisModel: simllm.GPT4o, ExtractModel: simllm.GPT4o,
			Scale: 0.05, MaxAttempts: 5, Seed: int64(1000 * (i + 1)), Platform: cache,
		})
		if _, err := eng.Tune(context.Background(), families[i%len(families)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sim.TotalFired()-start)/float64(b.N), "events/op")
	reportEvents(b, start)
}

// benchTuneSearch runs the adaptive successive-halving search end to end
// over the given platform stack, candidates and reps sharing one budget
// of 4.
func benchTuneSearch(b *testing.B, plat platform.Platform) {
	b.Helper()
	eng := core.New(simllm.New(simllm.GPT4o), core.Options{
		Spec: cluster.Default(), Scale: 0.1, Seed: 7, Platform: plat,
	})
	opts := search.Options{
		Workload: "IOR_16M", Candidates: 8, MaxReps: 3, Seed: 7,
	}
	ctx := pool.WithBudget(context.Background(), pool.NewBudget(4))
	eval := func(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64) ([]float64, stats.Summary, error) {
		return eng.Evaluate(ctx, core.EvalRequest{Workload: wl, Config: cfg, Reps: reps, SeedBase: seedBase})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(ctx, eval, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuneSearchUncached pays every candidate evaluation on the live
// simulator — including re-measuring survivors' earlier repetitions each
// time their precision doubles.
func BenchmarkTuneSearchUncached(b *testing.B) {
	benchTuneSearch(b, platform.Simulator{})
}

// BenchmarkTuneSearchCached runs the same search over the run cache:
// survivor promotions re-request runs earlier rounds already paid for, so
// only genuinely new (config, seed) trials simulate — and after the first
// iteration the whole search is served from memory. Compare with
// BenchmarkTuneSearchUncached for the cache-aware early-stopping win.
func BenchmarkTuneSearchCached(b *testing.B) {
	benchTuneSearch(b, runcache.New(platform.Simulator{}, 0))
}
