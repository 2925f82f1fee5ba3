// Command stellar-bench regenerates the paper's tables and figures on the
// simulated platform, and runs the serving tier's CI smokes, counter
// contracts and committed-baseline gates (BENCH_serve.json, BENCH_sim.json,
// BENCH_cluster.json). Latency distributions and per-layer timing belong
// to the perfbench module; stellar-bench records one wall-clock figure per
// pass, which is all those gates compare.
//
// Usage:
//
//	stellar-bench                  # every experiment (-h lists the ids)
//	stellar-bench -fig fig5        # one experiment
//	stellar-bench -reps 3          # fewer repetitions for a quick pass
//	stellar-bench -parallel 8      # run up to 8 arms, candidates and reps at once
//	stellar-bench -cache -cache-stats
//	                               # dedup identical trials; print hit/miss counters
//	stellar-bench -fig fig8 -repeat 2 -cache -json BENCH_fig8.json
//	                               # machine-readable wall-clock + cache stats per pass
//	stellar-bench -platform record # serialize the full run set, trace events included,
//	                               # to -record-dir
//	stellar-bench -platform replay # regenerate tables from recorded runs, no simulation
//	                               # (both run a cache over -record-dir, so -cache-stats
//	                               # reports it and -cache-dir is rejected)
//
// A run is one table of scenarios, each selected by one flag and run in
// this order:
//
//	-fig ID (or no flag)    figure regeneration, -repeat passes per experiment
//	-sim-passes N           N passes of the raw event kernel (the sim.Workout
//	                        mix, no model above it: events/sec, allocs/event),
//	                        then N passes of one uncached eight-rep
//	                        core.Evaluate (eval_ms, allocs_per_eval) — the
//	                        BENCH_sim.json gates
//	-serve-requests N       N identical POST /v1/evaluate at an in-process
//	                        server (the BENCH_serve.json gate)
//	-sweep-requests N       one POST /v1/sweeps grid of N cells, NDJSON
//	                        consumed to completion
//	-tune-requests N        one POST /v1/tune search over N candidates: a
//	                        second run over the same -cache-dir must report
//	                        zero misses and the identical winner
//	-cluster-requests N     -cluster-nodes real serve processes peered over
//	                        a shared cache dir: N duplicate evaluates fanned
//	                        across them (one simulation per distinct spec
//	                        fleet-wide), then a node restart that must
//	                        warm-start with zero misses (BENCH_cluster.json)
//
// One meter stamps every pass with its wall-clock, the discrete events
// fired, allocations per event and the run cache's delta, and one printer
// writes its footer; -json collects the records, so any BENCH_*.json
// trajectory doubles as a kernel-throughput trend line. The served
// scenarios share one body (start a server, drive it, take the delta) and
// run the same serve loop as stellar-serve.
//
// The -parallel fan-out is deterministic: tables are bit-identical to a
// serial run with the same seed — and with -cache they stay bit-identical
// while each unique (workload, config, seed) spec simulates exactly once.
// SIGINT/SIGTERM cancel the regeneration, aborting even mid-simulation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"stellar/internal/cli"
	"stellar/internal/cluster"
	"stellar/internal/core"
	"stellar/internal/experiments"
	"stellar/internal/llm/simllm"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/sim"
)

// benchRecord is one machine-readable measurement: the wall-clock cost of
// one experiment regeneration pass (or one server-throughput pass) plus the
// run cache's activity during it. -json writes these to a file so
// BENCH_*.json trajectories can accumulate across commits.
type benchRecord struct {
	Experiment string          `json:"experiment"`
	Pass       int             `json:"pass"`
	Seconds    float64         `json:"seconds"`
	Platform   string          `json:"platform"`
	Cache      *runcache.Stats `json:"cache,omitempty"` // delta over this pass
	Requests   int             `json:"requests,omitempty"`
	RPS        float64         `json:"rps,omitempty"`
	// Tune-pass fields: the winning configuration and the search budget
	// actually spent, so a BENCH_tune.json trajectory shows both what the
	// search found and what it cost.
	Winner      map[string]int64 `json:"winner,omitempty"`
	Rounds      int              `json:"rounds,omitempty"`
	Evaluations int              `json:"evaluations,omitempty"`
	Speedup     float64          `json:"speedup,omitempty"`
	// Kernel counters observed during the pass: discrete events fired, the
	// rate they fired at, and heap allocations per event across the whole
	// process. Zero (and omitted) on passes that run no simulation, e.g.
	// replay-platform regenerations.
	Events         uint64  `json:"events,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
	// Eval-pass fields: the wall-clock and whole-process allocation cost of
	// one uncached eight-rep core.Evaluate — the full model layer (workload
	// build, procfs snapshot, simulator, stats) with no cache or HTTP above
	// it. These are the numbers the CI model-perf gate compares against the
	// committed BENCH_sim.json baseline.
	EvalMS        float64 `json:"eval_ms,omitempty"`
	AllocsPerEval float64 `json:"allocs_per_eval,omitempty"`
	// Cluster-pass fields: the fleet size and the peering counters summed
	// over every node process's /v1/stats for the pass — how much duplicate
	// work crossed the wire (forwards, coalesced_remote), how much was
	// served for peers, and whether any forward degraded to a local run.
	Nodes           int    `json:"nodes,omitempty"`
	Forwards        uint64 `json:"forwards,omitempty"`
	ForwardErrs     uint64 `json:"forward_errs,omitempty"`
	CoalescedRemote uint64 `json:"coalesced_remote,omitempty"`
	ServedForwards  uint64 `json:"served_forwards,omitempty"`
}

// scenario is one row of the bench table: its name (the prefix of its
// errors), the value of the flag that selects it (passes for figures, sim
// and eval; requests for the served scenarios; 0 skips the row), and the
// function that runs it, handing each finished record to bench.emit.
type scenario struct {
	name string
	n    int
	run  func(ctx context.Context, n int) error
}

// bench is one invocation's shared state: the experiment config every
// scenario runs under, the flags' run cache, and the records so far.
type bench struct {
	cfg        experiments.Config // defaulted; Platform is the flags' stack
	parallel   int                // -parallel: served Workers and request concurrency
	cache      *runcache.Cache    // nil without -cache / -cache-dir
	nodes      int                // -cluster-nodes
	cacheStats bool               // -cache-stats
	out        io.Writer
	records    []benchRecord
}

func main() {
	var (
		fig      = flag.String("fig", "", "experiment id to run (empty = all): "+strings.Join(experiments.IDs(), ", "))
		reps     = flag.Int("reps", 8, "repetitions for averaged measurements")
		scale    = flag.Float64("scale", 0, "workload scale (0 = default)")
		seed     = flag.Int64("seed", 7, "base simulation seed")
		parallel = flag.Int("parallel", 1, "concurrent work shared by independent arms, candidates and repetitions; also served workers and request concurrency (1 = serial)")
		repeat   = flag.Int("repeat", 1, "regenerate each experiment this many times (cache-effectiveness runs)")
		jsonOut  = flag.String("json", "", "write per-pass wall-clock and cache stats to this file as JSON")
		serveN   = flag.Int("serve-requests", 0, "also measure stellar-serve throughput: fire this many identical HTTP evaluate requests at an in-process server and record the pass (0 = skip)")
		sweepN   = flag.Int("sweep-requests", 0, "also measure the batch sweep API: POST one parameter grid with this many cells to an in-process server, stream the NDJSON results, and record the pass with shard/persistence cache stats (0 = skip)")
		tuneN    = flag.Int("tune-requests", 0, "also measure the adaptive tuning search: POST /v1/tune with this many candidates to an in-process server, stream the NDJSON rounds, and record the winner, budget, and cache delta (0 = skip)")
		simN     = flag.Int("sim-passes", 0, "also measure raw event-kernel throughput (sim.Workout events/sec and allocs/event) plus uncached model-layer evaluation cost (core.Evaluate eval_ms and allocs_per_eval), this many passes of each (0 = skip)")
		clusterN = flag.Int("cluster-requests", 0, "also measure the distributed serving tier: spawn -cluster-nodes real serve processes peered over a shared cache dir, fan this many duplicate evaluate requests across them, restart one node, and record both passes with aggregate peering counters (0 = skip)")
		clusterK = flag.Int("cluster-nodes", 3, "fleet size for -cluster-requests")

		// Internal child-process flags for -cluster-requests: the parent
		// re-execs this binary once per node with these and -cache-dir set.
		serveNode = flag.String("serve-node", "", "internal: run as one cluster serve node on this address instead of benching")
		nodePeers = flag.String("node-peers", "", "internal: comma-separated fleet membership for -serve-node")
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
	cfg := experiments.Config{
		Reps: *reps, Scale: *scale, Seed: *seed, Platform: plat,
	}.Defaults()
	if *serveNode != "" {
		if err := serveClusterNode(ctx, cfg, cache, *serveNode, *nodePeers); err != nil {
			fatal(fmt.Errorf("serve node: %w", err))
		}
		return
	}

	b := &bench{cfg: cfg, parallel: *parallel, cache: cache, nodes: *clusterK, cacheStats: *pf.CacheStats, out: os.Stdout}
	table := []scenario{
		{"sim", *simN, b.simPasses},
		{"eval", *simN, b.evalPasses},
		{"serve", *serveN, b.servePass},
		{"sweep", *sweepN, b.sweepPass},
		{"tune", *tuneN, b.tunePass},
		{"cluster", *clusterN, b.clusterPass},
	}
	ids := experiments.IDs()
	if *fig != "" {
		ids = []string{*fig}
	} else if selected(table) {
		ids = nil
	}
	var figs []scenario
	for _, id := range ids {
		figs = append(figs, scenario{id, max(*repeat, 1), b.figurePasses(id)})
	}

	err = b.run(ctx, append(figs, table...))
	writeJSON(*jsonOut, b.records)
	if err != nil {
		fatal(err)
	}
	if cache != nil && b.cacheStats {
		fmt.Fprintf(b.out, "run cache total [%s]: %s\n", plat.Name(), cache.Stats())
	}
}

// selected reports whether any row's flag asks for it to run.
func selected(table []scenario) bool {
	for _, sc := range table {
		if sc.n > 0 {
			return true
		}
	}
	return false
}

// run executes the selected rows in table order, stopping at the first
// failure; records emitted before it are kept.
func (b *bench) run(ctx context.Context, table []scenario) error {
	for _, sc := range table {
		if sc.n <= 0 {
			continue
		}
		if err := sc.run(ctx, sc.n); err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
	}
	return nil
}

// meter is the one pass meter: every scenario brackets its measured work
// with startMeter and stop. Allocations are whole-process
// (runtime.MemStats.Mallocs), so on served passes they include HTTP and
// JSON overhead; on sim passes they are the bare kernel.
type meter struct {
	cache  *runcache.Cache
	before runcache.Stats
	events uint64
	allocs uint64
	t0     time.Time
}

// startMeter snapshots the event counter, the allocation tally and, when
// cache is non-nil, its counters, then starts the clock.
func startMeter(cache *runcache.Cache) *meter {
	m := &meter{cache: cache, events: sim.TotalFired(), allocs: mallocs()}
	if cache != nil {
		m.before = cache.Stats()
	}
	m.t0 = time.Now()
	return m
}

// stop stamps rec with the pass's wall-clock, events, events/sec,
// allocs/event and cache delta, plus units of work per second as RPS when
// units > 0, and returns the allocations made during the pass.
func (m *meter) stop(rec *benchRecord, units int) uint64 {
	rec.Seconds = time.Since(m.t0).Seconds()
	allocs := mallocs() - m.allocs
	if ev := sim.TotalFired() - m.events; ev > 0 {
		rec.Events = ev
		rec.AllocsPerEvent = float64(allocs) / float64(ev)
		if rec.Seconds > 0 {
			rec.EventsPerSec = float64(ev) / rec.Seconds
		}
	}
	if units > 0 && rec.Seconds > 0 {
		rec.RPS = float64(units) / rec.Seconds
	}
	if m.cache != nil {
		delta := m.cache.Stats().Delta(m.before)
		rec.Cache = &delta
	}
	return allocs
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// emit keeps one finished pass and prints its footer — the one summary
// printer: the cache delta under -cache-stats, then a "took" line with the
// wall-clock and whichever counters the scenario measured. Everything
// nondeterministic stays on the "took" line, which determinism checks
// strip with `grep -v took`.
func (b *bench) emit(rec benchRecord) {
	b.records = append(b.records, rec)
	if rec.Cache != nil && b.cacheStats {
		fmt.Fprintf(b.out, "(%s pass %d cache: %s)\n", rec.Experiment, rec.Pass, rec.Cache)
	}
	var parts []string
	if rec.Requests > 0 {
		parts = append(parts, fmt.Sprintf("%d requests, %.1f/s", rec.Requests, rec.RPS))
	}
	if rec.Evaluations > 0 {
		parts = append(parts, fmt.Sprintf("%d evaluations over %d rounds, winner %.2fx", rec.Evaluations, rec.Rounds, rec.Speedup))
	}
	if rec.Nodes > 0 {
		parts = append(parts, fmt.Sprintf("%d nodes, %d forwards, %d coalesced remote", rec.Nodes, rec.Forwards, rec.CoalescedRemote))
	}
	if rec.EvalMS > 0 {
		parts = append(parts, fmt.Sprintf("%.1f ms/eval, %.0f allocs/eval", rec.EvalMS, rec.AllocsPerEval))
	}
	if rec.Events > 0 {
		parts = append(parts, fmt.Sprintf("%d events, %.2fM events/s, %.4f allocs/event", rec.Events, rec.EventsPerSec/1e6, rec.AllocsPerEvent))
	}
	took := time.Duration(rec.Seconds * float64(time.Second)).Round(time.Millisecond)
	detail := ""
	if len(parts) > 0 {
		detail = ": " + strings.Join(parts, ", ")
	}
	fmt.Fprintf(b.out, "(%s pass %d took %v%s)\n\n", rec.Experiment, rec.Pass, took, detail)
}

// figurePasses regenerates experiment id n times, printing each table.
func (b *bench) figurePasses(id string) func(context.Context, int) error {
	return func(ctx context.Context, n int) error {
		for pass := 1; pass <= n; pass++ {
			m := startMeter(b.cache)
			out, err := experiments.Run(ctx, id, b.cfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(b.out, out)
			rec := benchRecord{Experiment: id, Pass: pass, Platform: b.cfg.Platform.Name()}
			m.stop(&rec, 0)
			b.emit(rec)
		}
		return nil
	}
}

// simPasses measures the raw event kernel with no lustre model, run cache,
// or HTTP stack above it: the deterministic sim.Workout mix of timer
// chains, pipe transfers, resource contention, and same-instant grant
// wakeups, the same body BenchmarkEngineRun times. Its events_per_sec is
// the number the CI sim-perf gate compares against the committed
// BENCH_sim.json baseline, and its allocs_per_event is the cleanest view
// of the allocation-free hot loop. An unmeasured warm-up round and a GC
// run first so one-time runtime initialization is not charged to a pass.
func (b *bench) simPasses(ctx context.Context, n int) error {
	const chains, ops, rounds = 64, 256, 16
	sim.Workout(chains, ops)
	runtime.GC()
	for pass := 1; pass <= n; pass++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := startMeter(nil)
		for i := 0; i < rounds; i++ {
			sim.Workout(chains, ops)
		}
		rec := benchRecord{Experiment: "sim", Pass: pass, Platform: "kernel"}
		m.stop(&rec, 0)
		b.emit(rec)
	}
	return nil
}

// evalPasses measures one uncached eight-rep core.Evaluate of IOR_16M —
// the paper's measurement protocol with the full model layer under it
// (workload build, pooled procfs snapshot, lustre simulation, stats) and
// nothing above it. Per-eval wall-clock (eval_ms) and whole-process
// allocations (allocs_per_eval) gate the model layer in CI the same way
// events_per_sec gates the kernel. One engine serves every pass, and an
// unmeasured warm-up eval plus a GC run first, so the passes measure the
// steady state the figure drivers run in, scratch pools warm.
func (b *bench) evalPasses(ctx context.Context, n int) error {
	const rounds = 5
	eng := core.New(simllm.New(simllm.GPT4o), core.Options{
		Spec: cluster.Default(), TuningModel: simllm.Claude37,
		AnalysisModel: simllm.GPT4o, ExtractModel: simllm.GPT4o,
		Scale: 0.25, Platform: platform.Simulator{},
	})
	req := core.EvalRequest{Workload: "IOR_16M", Config: params.DefaultConfig(eng.Registry()), Reps: 8, SeedBase: 99}
	ctx = pool.WithBudget(ctx, nil) // the gate pins a serial evaluation at any -parallel
	eval := func() error {
		_, _, err := eng.Evaluate(ctx, req)
		return err
	}
	if err := eval(); err != nil {
		return err
	}
	runtime.GC()
	for pass := 1; pass <= n; pass++ {
		m := startMeter(nil)
		for i := 0; i < rounds; i++ {
			if err := eval(); err != nil {
				return err
			}
		}
		rec := benchRecord{Experiment: "eval", Pass: pass, Platform: "sim"}
		allocs := m.stop(&rec, 0)
		rec.EvalMS = rec.Seconds * 1000 / rounds
		rec.AllocsPerEval = float64(allocs) / rounds
		b.emit(rec)
	}
	return nil
}

// writeJSON writes whatever passes completed, on the failure path too, so
// a SIGINT during pass N still leaves the first N-1 records in the -json
// file. The write is atomic (temp file + rename): an interrupt mid-write
// must never leave a truncated BENCH_*.json behind where a previous
// complete one stood.
func writeJSON(path string, records []benchRecord) {
	if path == "" || records == nil {
		return
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stellar-bench: marshaling -json records:", err)
		return
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stellar-bench: writing -json file:", err)
		return
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		fmt.Fprintln(os.Stderr, "stellar-bench: writing -json file:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stellar-bench:", err)
	os.Exit(1)
}
