// Command stellar runs one complete STELLAR tuning run on a named workload:
// offline RAG parameter extraction, the initial traced execution, the
// Analysis/Tuning agent loop, and the final report with the best
// configuration and generated rules.
//
// Usage:
//
//	stellar -workload IOR_16M [-model claude-3.7-sonnet] [-scale 0.25] [-attempts 5] [-parallel 4]
//	stellar -workload IOR_16M -cache -cache-stats      # memoize identical trials
//	stellar -workload IOR_16M -platform record         # serialize every run to -record-dir,
//	                                                   # the traced initial run with its events
//	stellar -workload IOR_16M -platform replay         # regenerate from recorded runs, no simulation
//	stellar -workload IOR_16M -tune -tune-candidates 16 -cache
//	                                                   # adaptive successive-halving search
//	                                                   # instead of the agentic tuning loop
//	stellar -workload IOR_16M -tune -objective composite   # scalarize mean+tail+CI
//	stellar -workload IOR_16M -faults "seed=42,severity=0.6"
//	                                                   # inject a seeded fault schedule
//	                                                   # (OST dropouts, degraded stripes,
//	                                                   # MDS slowdowns) into every run
//	stellar -workload IOR_16M -tune -objective robust -faults "seed=42,severity=0.6"
//	                                                   # search for a configuration that
//	                                                   # holds up across clean + faulted
//	                                                   # cluster variants
//
// SIGINT/SIGTERM cancel the run's context: in-flight model calls unwind, and
// the discrete-event simulation itself aborts within a bounded number of
// events rather than running to completion.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"stellar/internal/cli"
	"stellar/internal/cluster"
	"stellar/internal/core"
	"stellar/internal/llm/simllm"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/pool"
	"stellar/internal/search"
	"stellar/internal/stats"
	"stellar/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "IOR_16M", "workload name: "+strings.Join(append(append(workload.Benchmarks(), workload.RealApps()...), workload.Adversarial()...), ", "))
		model    = flag.String("model", simllm.Claude37, "tuning agent model: "+strings.Join(simllm.Models(), ", "))
		scale    = flag.Float64("scale", workload.DefaultScale, "workload scale factor (1.0 = paper size)")
		attempts = flag.Int("attempts", 5, "maximum configuration attempts")
		seed     = flag.Int64("seed", 1, "simulation seed")
		parallel = flag.Int("parallel", 1, "concurrent runs shared by evaluation repetitions and -tune candidates (1 = serial)")
		verbose  = flag.Bool("v", false, "print the I/O report, rationale details, and clamp warnings")

		tune      = flag.Bool("tune", false, "run the adaptive successive-halving search over random candidate configs instead of the agentic tuning loop")
		tuneCands = flag.Int("tune-candidates", 16, "candidate pool size for -tune")
		tuneReps  = flag.Int("tune-reps", 8, "repetitions the -tune winner is measured at (rounds start at 1 and grow geometrically)")
		objective = flag.String("objective", "mean", "-tune objective: mean (mean wall), tail (worst rep), composite (mean + 0.5*tail + 0.5*ci90), robust (clean + worst faulted variant; needs -faults)")

		faultsFlag    = flag.String("faults", "", `fault plan: "seed=N,severity=F" for a derived schedule, or a JSON plan with explicit windows; empty = healthy cluster`)
		faultVariants = flag.Int("fault-variants", 2, "faulted cluster variants the robust objective scores each candidate across (1-8)")
	)
	pf := cli.RegisterPlatformFlags()
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = pool.WithBudget(ctx, pool.NewBudget(*parallel))

	plat, cache, err := pf.Build()
	if err != nil {
		fatal(err)
	}
	plan, err := lustre.ParseFaultPlan(*faultsFlag)
	if err != nil {
		fatal(err)
	}
	if *faultVariants < 1 || *faultVariants > 8 {
		fatal(fmt.Errorf("-fault-variants must be in [1, 8], got %d", *faultVariants))
	}

	eng := core.New(simllm.New(simllm.GPT4o), core.Options{
		Spec:          cluster.Default(),
		TuningModel:   *model,
		AnalysisModel: simllm.GPT4o,
		ExtractModel:  simllm.GPT4o,
		Scale:         *scale,
		MaxAttempts:   *attempts,
		Seed:          *seed,
		Platform:      plat,
		// The engine-wide plan: the agentic loop's trials and the plain
		// search both measure on the degraded cluster.
		Faults: plan,
	})
	if !plan.IsZero() {
		fmt.Printf("fault injection active: %s\n", plan)
	}

	if *tune {
		runSearch(ctx, eng, *name, *tuneCands, *tuneReps, *seed, *objective, plan, *faultVariants)
		if cache != nil && *pf.CacheStats {
			fmt.Printf("run cache [%s]: %s\n", eng.Platform().Name(), cache.Stats())
		}
		return
	}

	rep, err := eng.Offline(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("offline extraction: %d parameters in the tree, %d writable, %d selected as tunable\n",
		rep.TotalParams, rep.Writable, len(rep.Selected))

	res, err := eng.Tune(ctx, *name)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Println("\n--- I/O report ---")
		fmt.Println(res.Report)
	}
	fmt.Printf("\ntuning run on %s (%d configuration attempts):\n", *name, len(res.History)-1)
	for i, h := range res.History {
		speedup := res.History[0].WallTime / h.WallTime
		fmt.Printf("  iteration %d: %8.3f s  (x%.2f)\n", i, h.WallTime, speedup)
		if *verbose && len(h.Clamped) > 0 {
			fmt.Printf("      warning: proposed values out of range, clamped: %s\n",
				strings.Join(h.Clamped, ", "))
		}
	}
	fmt.Printf("end reason: %s\n", res.EndReason)
	fmt.Println("\nbest configuration:")
	for _, k := range res.BestCfg.Names() {
		fmt.Printf("  %-36s = %d\n", k, res.BestCfg[k])
	}
	fmt.Printf("\ngenerated global rule set: %d rules\n", eng.Rules().Len())
	if *verbose {
		fmt.Println(eng.Rules().JSON())
	}
	u := res.Usage["tuning-agent"]
	fmt.Printf("tuning agent tokens: %d in / %d out, cache hit %.0f%%\n",
		u.InputTokens, u.OutputTokens, u.CacheHitRate()*100)
	if cache != nil && *pf.CacheStats {
		fmt.Printf("run cache [%s]: %s\n", eng.Platform().Name(), cache.Stats())
	}
}

// runSearch drives the adaptive tuning search (internal/search) over the
// engine's evaluator: every trial flows through the configured platform
// stack, so -cache makes survivor promotions free and -platform replay
// reruns a recorded search without simulating. With -objective robust each
// candidate is measured on the clean cluster plus variants faulted siblings
// of the plan, and scored on its worst degraded variant alongside its clean
// mean.
func runSearch(ctx context.Context, eng *core.Engine, name string, candidates, reps int, seed int64, objective string, plan lustre.FaultPlan, variants int) {
	spec := cluster.Default()
	objSpec := search.ObjectiveSpec{Kind: objective}
	if objective == "composite" {
		objSpec.MeanWeight, objSpec.TailWeight, objSpec.CIWeight = 1, 0.5, 0.5
	}
	if objective == "robust" {
		if plan.IsZero() {
			fatal(fmt.Errorf("-objective robust requires -faults"))
		}
		objSpec.Perturbations = variants
	}
	obj, err := objSpec.Build()
	if err != nil {
		fatal(err)
	}
	var eval search.EvalFunc = func(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64) ([]float64, stats.Summary, error) {
		return eng.Evaluate(ctx, core.EvalRequest{Workload: wl, Config: cfg, Reps: reps, SeedBase: seedBase})
	}
	if objective == "robust" {
		plans := plan.Variants(variants)
		eval = search.PerturbedEval(variants, func(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64, v int) ([]float64, error) {
			walls, _, err := eng.Evaluate(ctx, core.EvalRequest{Workload: wl, Config: cfg, Reps: reps, SeedBase: seedBase, Faults: &plans[v]})
			return walls, err
		})
	}
	opts := search.Options{
		Workload:   name,
		Candidates: candidates,
		MaxReps:    reps,
		Seed:       seed,
		Objective:  obj,
		Registry:   eng.Registry(),
		Env:        params.SystemEnv(int64(spec.MemoryMBPerNode), int64(spec.OSTCount), nil),
	}
	fmt.Printf("adaptive search on %s: %d candidates, objective %s, winner at %d reps\n",
		name, candidates, obj.Name(), reps)
	res, err := search.Run(ctx, eval, opts, func(rd search.Round) {
		fmt.Printf("  round %d: %2d candidates at %d reps -> keep %d, best score %8.3f (candidate %d)\n",
			rd.Round, rd.Evaluated, rd.Reps, len(rd.Survivors), rd.Best.Score, rd.Best.Index)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nwinner: candidate %d (score %.3f, mean %.3f s over %d reps), %.2fx over defaults\n",
		res.Winner.Index, res.Winner.Score, res.Winner.MeanSeconds, res.Winner.Reps, res.Speedup())
	fmt.Println("winning configuration:")
	cfg := params.Config{}
	for k, v := range res.Winner.Config {
		cfg[k] = v
	}
	for _, k := range cfg.Names() {
		fmt.Printf("  %-36s = %d\n", k, cfg[k])
	}
	fmt.Printf("budget: %d evaluations, %d rep-runs requested (exhaustive pool at full precision: %d)\n",
		res.Evaluations, res.RepRuns, res.Candidates*opts.MaxReps)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stellar:", err)
	os.Exit(1)
}
