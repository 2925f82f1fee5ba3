// Command stellar-bench regenerates the paper's tables and figures on the
// simulated platform.
//
// Usage:
//
//	stellar-bench                  # run everything (Figures 2, 5-10, cost, iteration cost)
//	stellar-bench -fig fig5        # one experiment (fig2 fig5 fig6 fig7 fig8 fig9 cost iters fig10)
//	stellar-bench -reps 3          # fewer repetitions for a quick pass
//	stellar-bench -parallel 8      # fan independent arms/reps over 8 workers
//	stellar-bench -cache -cache-stats
//	                               # dedup identical trials; print hit/miss counters
//	stellar-bench -fig fig8 -repeat 2 -cache -json BENCH_fig8.json
//	                               # machine-readable wall-clock + cache stats per pass
//	stellar-bench -platform record # serialize the full run set to -record-dir
//	stellar-bench -platform replay # regenerate tables from recorded runs, no simulation
//	stellar-bench -serve-requests 64 -json BENCH_serve.json
//	                               # stellar-serve throughput: fire identical HTTP
//	                               # evaluate requests at an in-process server
//	                               # (combine with -fig to also run experiments)
//	stellar-bench -sweep-requests 16 -cache-dir cachedir -json BENCH_sweep.json
//	                               # batch sweep API: one POST /v1/sweeps with a
//	                               # 16-cell grid, NDJSON streamed back; records
//	                               # shard + persistence cache effectiveness
//	stellar-bench -tune-requests 8 -cache-dir cachedir -json BENCH_tune.json
//	                               # adaptive tuning search: one POST /v1/tune
//	                               # over an 8-candidate pool, NDJSON rounds
//	                               # consumed; records the winner, the budget
//	                               # spent, and the cache delta (a second run
//	                               # over the same -cache-dir must report zero
//	                               # misses and the identical winner)
//	stellar-bench -cluster-requests 24 -cluster-nodes 3 -json BENCH_cluster.json
//	                               # distributed serving tier: spawn 3 real
//	                               # serve processes peered over a shared
//	                               # cache dir, fan duplicate requests across
//	                               # all of them (exactly one simulation per
//	                               # distinct spec cluster-wide), then restart
//	                               # a node and verify the zero-miss warm
//	                               # start from the shared directory
//	stellar-bench -sim-passes 3 -json BENCH_sim.json
//	                               # raw event-kernel throughput: drive the
//	                               # deterministic sim.Workout mix with no
//	                               # model, cache, or HTTP above it and record
//	                               # events/sec and allocs/event per pass —
//	                               # plus the same number of uncached eight-rep
//	                               # core.Evaluate passes recording eval_ms and
//	                               # allocs_per_eval for the full model layer —
//	                               # the baselines the CI perf gates compare
//	                               # fresh runs against
//
// Every recorded pass carries the discrete-event counters observed while it
// ran — events fired, events/sec, allocations per event — so any BENCH_*.json
// trajectory doubles as a kernel-throughput trend line.
//
// The -parallel fan-out is deterministic: tables are bit-identical to a
// serial run with the same seed — and with -cache they stay bit-identical
// while each unique (workload, config, seed) spec simulates exactly once.
// SIGINT/SIGTERM cancel the regeneration, aborting even mid-simulation.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
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
	"stellar/internal/server"
	"stellar/internal/sim"
)

// benchRecord is one machine-readable measurement: the wall-clock cost of
// one experiment regeneration pass (or one server-throughput pass) plus the
// run cache's activity during it. -json appends these to a file so
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

// simMeter snapshots the process-wide event counter and allocation tally at
// the start of a pass so the pass record can carry events, events/sec, and
// allocs/event alongside its wall-clock. Allocations are whole-process
// (runtime.MemStats.Mallocs), so on serving passes the figure includes HTTP
// and JSON overhead — on -sim-passes it is the bare kernel.
type simMeter struct {
	events uint64
	allocs uint64
}

func newSimMeter() simMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return simMeter{events: sim.TotalFired(), allocs: ms.Mallocs}
}

func (m simMeter) record(rec *benchRecord, seconds float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ev := sim.TotalFired() - m.events
	if ev == 0 {
		return
	}
	rec.Events = ev
	rec.AllocsPerEvent = float64(ms.Mallocs-m.allocs) / float64(ev)
	if seconds > 0 {
		rec.EventsPerSec = float64(ev) / seconds
	}
}

// records accumulates the per-pass measurements; jsonPath is the -json
// destination. Both are package-level so fatal can flush completed passes
// even when a later pass fails or is cancelled mid-run.
var (
	records  []benchRecord
	jsonPath string
)

func main() {
	var (
		fig      = flag.String("fig", "", "experiment id to run (empty = all)")
		reps     = flag.Int("reps", 8, "repetitions for averaged measurements")
		scale    = flag.Float64("scale", 0, "workload scale (0 = default)")
		seed     = flag.Int64("seed", 7, "base simulation seed")
		parallel = flag.Int("parallel", 1, "worker pool size for independent arms and repetitions (1 = serial)")
		repeat   = flag.Int("repeat", 1, "regenerate each experiment this many times (cache-effectiveness runs)")
		jsonOut  = flag.String("json", "", "write per-pass wall-clock and cache stats to this file as JSON")
		serveN   = flag.Int("serve-requests", 0, "also measure stellar-serve throughput: fire this many identical HTTP evaluate requests at an in-process server and record the pass (0 = skip)")
		sweepN   = flag.Int("sweep-requests", 0, "also measure the batch sweep API: POST one parameter grid with this many cells to an in-process server, stream the NDJSON results, and record the pass with shard/persistence cache stats (0 = skip)")
		tuneN    = flag.Int("tune-requests", 0, "also measure the adaptive tuning search: POST /v1/tune with this many candidates to an in-process server, stream the NDJSON rounds, and record the winner, budget, and cache delta (0 = skip)")
		simN     = flag.Int("sim-passes", 0, "also measure raw event-kernel throughput (sim.Workout events/sec and allocs/event) plus uncached model-layer evaluation cost (core.Evaluate eval_ms and allocs_per_eval), this many passes of each (0 = skip)")
		clusterN = flag.Int("cluster-requests", 0, "also measure the distributed serving tier: spawn -cluster-nodes real serve processes peered over a shared cache dir, fan this many duplicate evaluate requests across them, restart one node, and record both passes with aggregate peering counters (0 = skip)")
		clusterK = flag.Int("cluster-nodes", 3, "fleet size for -cluster-requests")

		// Internal child-process flags for -cluster-requests: the parent
		// re-execs this binary once per node with these set.
		serveNode    = flag.String("serve-node", "", "internal: run as one cluster serve node on this address instead of benching")
		nodePeers    = flag.String("node-peers", "", "internal: comma-separated fleet membership for -serve-node")
		nodeCacheDir = flag.String("node-cache-dir", "", "internal: shared persistent cache directory for -serve-node")
	)
	pf := cli.RegisterPlatformFlags()
	flag.Parse()
	jsonPath = *jsonOut

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *serveNode != "" {
		if err := runServeNode(ctx, *serveNode, *nodePeers, *nodeCacheDir, *scale, *reps, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "stellar-bench (serve node):", err)
			os.Exit(1)
		}
		return
	}

	plat, cache, err := pf.Build()
	if err != nil {
		fatal(err)
	}
	cfg := experiments.Config{
		Reps: *reps, Scale: *scale, Seed: *seed, Parallel: *parallel, Platform: plat,
	}
	if *repeat < 1 {
		*repeat = 1
	}

	run := func(id string, pass int) {
		meter := newSimMeter()
		t0 := time.Now()
		var before runcache.Stats
		if cache != nil {
			before = cache.Stats()
		}
		out, err := experiments.Run(ctx, id, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Println(out)
		elapsed := time.Since(t0)
		rec := benchRecord{
			Experiment: id, Pass: pass,
			Seconds: elapsed.Seconds(), Platform: plat.Name(),
		}
		meter.record(&rec, elapsed.Seconds())
		if cache != nil {
			delta := cache.Stats().Delta(before)
			rec.Cache = &delta
			if *pf.CacheStats {
				fmt.Printf("(%s pass %d cache: %s)\n", id, pass, delta)
			}
		}
		records = append(records, rec)
		fmt.Printf("(%s pass %d took %v)\n\n", id, pass, elapsed.Round(time.Millisecond))
	}

	ids := []string{}
	if *fig != "" {
		ids = append(ids, *fig)
	} else if *serveN == 0 && *sweepN == 0 && *tuneN == 0 && *simN == 0 && *clusterN == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		for pass := 1; pass <= *repeat; pass++ {
			run(id, pass)
		}
	}

	for pass := 1; pass <= *simN; pass++ {
		rec := simPass(pass)
		records = append(records, rec)
		fmt.Printf("(sim pass %d: %d events in %.3fs, %.2fM events/s, %.4f allocs/event)\n",
			pass, rec.Events, rec.Seconds, rec.EventsPerSec/1e6, rec.AllocsPerEvent)
	}
	for pass := 1; pass <= *simN; pass++ {
		rec, err := evalPass(ctx, pass)
		if err != nil {
			fatal(fmt.Errorf("eval: %w", err))
		}
		records = append(records, rec)
		fmt.Printf("(eval pass %d: %.1f ms/eval, %.0f allocs/eval, %.2fM events/s)\n",
			pass, rec.EvalMS, rec.AllocsPerEval, rec.EventsPerSec/1e6)
	}

	if *serveN > 0 {
		rec, err := servePass(ctx, plat, cache, cfg, *serveN)
		if err != nil {
			fatal(fmt.Errorf("serve: %w", err))
		}
		records = append(records, rec)
		fmt.Printf("(serve: %d requests in %.3fs, %.1f req/s, cache: %s)\n",
			rec.Requests, rec.Seconds, rec.RPS, rec.Cache)
	}

	if *sweepN > 0 {
		rec, err := sweepPass(ctx, plat, cache, cfg, *sweepN)
		if err != nil {
			fatal(fmt.Errorf("sweep: %w", err))
		}
		records = append(records, rec)
		fmt.Printf("(sweep: %d cells in %.3fs, %.1f cells/s, cache: %s)\n",
			rec.Requests, rec.Seconds, rec.RPS, rec.Cache)
	}

	if *tuneN > 0 {
		rec, err := tunePass(ctx, plat, cache, cfg, *tuneN)
		if err != nil {
			fatal(fmt.Errorf("tune: %w", err))
		}
		records = append(records, rec)
		fmt.Printf("(tune: %d candidates, %d evaluations over %d rounds in %.3fs, winner %.2fx, cache: %s)\n",
			rec.Requests, rec.Evaluations, rec.Rounds, rec.Seconds, rec.Speedup, rec.Cache)
	}

	if *clusterN > 0 {
		recs, err := clusterPass(ctx, cfg, *clusterN, *clusterK)
		if err != nil {
			fatal(fmt.Errorf("cluster: %w", err))
		}
		records = append(records, recs...)
		for _, rec := range recs {
			fmt.Printf("(cluster pass %d: %d requests over %d nodes in %.3fs, %.1f req/s, forwards %d, coalesced %d, misses %d, disk hits %d)\n",
				rec.Pass, rec.Requests, rec.Nodes, rec.Seconds, rec.RPS,
				rec.Forwards, rec.CoalescedRemote, rec.Cache.Misses, rec.Cache.DiskHits)
		}
	}

	if cache != nil && *pf.CacheStats {
		fmt.Printf("run cache total [%s]: %s\n", plat.Name(), cache.Stats())
	}
	flushJSON()
}

// simPass measures the raw event kernel with no lustre model, run cache, or
// HTTP stack above it: the deterministic sim.Workout mix of timer chains,
// pipe transfers, resource contention, and same-instant grant wakeups, the
// same body BenchmarkEngineRun times. Its events_per_sec is the number the CI
// sim-perf gate compares against the committed BENCH_sim.json baseline, and
// its allocs_per_event is the cleanest view of the allocation-free hot loop
// (an unmeasured warm-up round runs first so one-time runtime initialization
// is not charged to the measured passes).
func simPass(pass int) benchRecord {
	const chains, ops, rounds = 64, 256, 16
	if pass == 1 {
		sim.Workout(chains, ops)
		runtime.GC()
	}
	meter := newSimMeter()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		sim.Workout(chains, ops)
	}
	elapsed := time.Since(t0).Seconds()
	rec := benchRecord{Experiment: "sim", Pass: pass, Seconds: elapsed, Platform: "kernel"}
	meter.record(&rec, elapsed)
	return rec
}

// evalEng is the engine shared by all eval passes, built on first use so
// later passes measure the model layer with its scratch pools warm — the
// steady state the figure drivers run in.
var evalEng *core.Engine

// evalPass measures one uncached eight-rep core.Evaluate of IOR_16M — the
// paper's measurement protocol with the full model layer under it (workload
// build, pooled procfs snapshot, lustre simulation, stats) and nothing above
// it. Per-eval wall-clock (eval_ms) and whole-process allocations
// (allocs_per_eval, from runtime.MemStats.Mallocs) gate the model layer's
// allocation-free rewrite in CI the same way events_per_sec gates the
// kernel. Pass 1 pays an unmeasured warm-up eval plus a GC so pool fills and
// one-time runtime initialization are not charged to the measured rounds.
func evalPass(ctx context.Context, pass int) (benchRecord, error) {
	const evalReps, evalSeed, rounds = 8, 99, 5
	if evalEng == nil {
		evalEng = core.New(simllm.New(simllm.GPT4o), core.Options{
			Spec: cluster.Default(), TuningModel: simllm.Claude37,
			AnalysisModel: simllm.GPT4o, ExtractModel: simllm.GPT4o,
			Scale: 0.25, Platform: platform.Simulator{},
		})
	}
	cfg := params.DefaultConfig(evalEng.Registry())
	eval := func() error {
		_, _, err := evalEng.Evaluate(ctx, core.EvalRequest{Workload: "IOR_16M", Config: cfg, Reps: evalReps, SeedBase: evalSeed})
		return err
	}
	if pass == 1 {
		if err := eval(); err != nil {
			return benchRecord{}, err
		}
		runtime.GC()
	}
	meter := newSimMeter()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if err := eval(); err != nil {
			return benchRecord{}, err
		}
	}
	elapsed := time.Since(t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec := benchRecord{Experiment: "eval", Pass: pass, Seconds: elapsed, Platform: "sim"}
	meter.record(&rec, elapsed)
	rec.EvalMS = elapsed * 1000 / rounds
	rec.AllocsPerEval = float64(ms.Mallocs-meter.allocs) / rounds
	return rec, nil
}

// startServer runs an in-process stellar-serve instance on an ephemeral
// loopback port for one pass, serving from cache (a default cache over plat
// when the flags stacked none). n bounds the pass: the backlog, the sweep
// grid and the tune pool. stop closes the listener, then the server.
func startServer(plat platform.Platform, cache *runcache.Cache, cfg experiments.Config, n int) (srv *server.Server, base string, stop func(), err error) {
	if cache == nil {
		cache = runcache.New(plat, 0)
	}
	srv, err = server.New(server.Options{
		Cache: cache,
		Scale: cfg.Scale, Seed: cfg.Seed, Reps: cfg.Reps,
		Workers: cfg.Parallel, Parallel: 1,
		Backlog: n, MaxSweepCells: n, MaxTuneCandidates: n,
	})
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop = func() {
		hs.Close()
		srv.Close()
	}
	return srv, "http://" + ln.Addr().String(), stop, nil
}

// readFooter posts body to url, consumes the NDJSON stream to completion,
// and decodes its last line (the footer) into footer.
func readFooter(ctx context.Context, url, body string, footer any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := json.Unmarshal(last, footer); err != nil {
		return fmt.Errorf("parsing footer: %w", err)
	}
	return nil
}

// servePass measures tuning-as-a-service throughput: an in-process
// stellar-serve instance on an ephemeral port, n identical evaluate
// requests fanned over the experiment worker pool, recorded like any other
// bench pass. The first request pays the simulations; the rest exercise the
// shared run cache, so the rate reflects serving overhead at steady state.
func servePass(ctx context.Context, plat platform.Platform, cache *runcache.Cache, cfg experiments.Config, n int) (benchRecord, error) {
	cfg = cfg.Defaults()
	srv, base, stop, err := startServer(plat, cache, cfg, n)
	if err != nil {
		return benchRecord{}, err
	}
	defer stop()

	url := base + "/v1/evaluate"
	body := fmt.Sprintf(`{"workload":"IOR_16M","reps":%d,"seed":%d}`, cfg.Reps, cfg.Seed)
	before := srv.Cache().Stats()
	meter := newSimMeter()
	t0 := time.Now()
	err = pool.Map(ctx, cfg.Parallel, n, func(ctx context.Context, i int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("request %d: HTTP %d", i, resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		return benchRecord{}, err
	}
	elapsed := time.Since(t0).Seconds()
	delta := srv.Cache().Stats().Delta(before)
	rec := benchRecord{
		Experiment: "serve", Pass: 1, Seconds: elapsed,
		Platform: srv.Platform().Name(), Cache: &delta,
		Requests: n, RPS: float64(n) / elapsed,
	}
	meter.record(&rec, elapsed)
	return rec, nil
}

// sweepPass measures the batch sweep API: an in-process stellar-serve
// instance, one POST /v1/sweeps whose grid expands to n cells (n values of
// one parameter), the NDJSON stream consumed to completion. The recorded
// cache delta carries the shard count and persistence counters, so a
// BENCH_*.json trajectory shows how much of a grid the sharded cache and
// the disk directory absorbed.
func sweepPass(ctx context.Context, plat platform.Platform, cache *runcache.Cache, cfg experiments.Config, n int) (benchRecord, error) {
	cfg = cfg.Defaults()
	srv, base, stop, err := startServer(plat, cache, cfg, n)
	if err != nil {
		return benchRecord{}, err
	}
	defer stop()

	// n cells: n distinct values of one well-understood parameter, so every
	// cell is a unique spec and the recorded miss count means what it says.
	// (Values past the registry range are clamped at run time but still
	// hash to distinct cache keys.)
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprint(i + 1) // osc.max_pages_per_rpc
	}
	body := fmt.Sprintf(`{"workload":"IOR_16M","reps":%d,"seed":%d,"grid":{"osc.max_pages_per_rpc":[%s]}}`,
		cfg.Reps, cfg.Seed, strings.Join(vals, ","))

	before := srv.Cache().Stats()
	meter := newSimMeter()
	t0 := time.Now()
	var footer server.SweepFooter
	if err := readFooter(ctx, base+"/v1/sweeps", body, &footer); err != nil {
		return benchRecord{}, err
	}
	if footer.Done != n {
		return benchRecord{}, fmt.Errorf("sweep completed %d/%d cells (%d failed)", footer.Done, n, footer.Failed)
	}
	elapsed := time.Since(t0).Seconds()
	delta := srv.Cache().Stats().Delta(before)
	rec := benchRecord{
		Experiment: "sweep", Pass: 1, Seconds: elapsed,
		Platform: srv.Platform().Name(), Cache: &delta,
		Requests: n, RPS: float64(n) / elapsed,
	}
	meter.record(&rec, elapsed)
	return rec, nil
}

// tunePass measures the adaptive tuning-search API: an in-process
// stellar-serve instance, one POST /v1/tune over an n-candidate pool, the
// NDJSON round stream consumed to completion. The recorded pass carries the
// winning configuration and the search budget, so two passes over the same
// -cache-dir demonstrate the determinism contract: the second reports zero
// misses and the byte-identical winner.
func tunePass(ctx context.Context, plat platform.Platform, cache *runcache.Cache, cfg experiments.Config, n int) (benchRecord, error) {
	cfg = cfg.Defaults()
	srv, base, stop, err := startServer(plat, cache, cfg, n)
	if err != nil {
		return benchRecord{}, err
	}
	defer stop()

	body := fmt.Sprintf(`{"workload":"IOR_16M","candidates":%d,"max_reps":%d,"seed":%d}`,
		n, cfg.Reps, cfg.Seed)
	before := srv.Cache().Stats()
	meter := newSimMeter()
	t0 := time.Now()
	var footer server.TuneFooter
	if err := readFooter(ctx, base+"/v1/tune", body, &footer); err != nil {
		return benchRecord{}, err
	}
	if footer.Cancelled || footer.Error != "" {
		return benchRecord{}, fmt.Errorf("search did not complete: cancelled=%v error=%q", footer.Cancelled, footer.Error)
	}
	elapsed := time.Since(t0).Seconds()
	delta := srv.Cache().Stats().Delta(before)
	rec := benchRecord{
		Experiment: "tune", Pass: 1, Seconds: elapsed,
		Platform: srv.Platform().Name(), Cache: &delta,
		Requests: n, RPS: float64(footer.Evaluations) / elapsed,
		Winner: footer.Winner.Config, Rounds: footer.Rounds,
		Evaluations: footer.Evaluations, Speedup: footer.Speedup,
	}
	meter.record(&rec, elapsed)
	return rec, nil
}

// flushJSON writes whatever passes completed so far. Called on both the
// success path and from fatal, so a SIGINT during pass N still leaves the
// first N-1 records in the -json file. The write is atomic (temp file +
// rename): an interrupt mid-write must never leave a truncated BENCH_*.json
// behind where a previous complete one stood.
func flushJSON() {
	if jsonPath == "" || records == nil {
		return
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stellar-bench: marshaling -json records:", err)
		return
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(jsonPath), filepath.Base(jsonPath)+".tmp*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stellar-bench: writing -json file:", err)
		return
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), jsonPath)
	}
	if err != nil {
		os.Remove(tmp.Name())
		fmt.Fprintln(os.Stderr, "stellar-bench: writing -json file:", err)
	}
}

func fatal(err error) {
	flushJSON()
	fmt.Fprintln(os.Stderr, "stellar-bench:", err)
	os.Exit(1)
}
