// Package core is the STELLAR engine: it wires the offline RAG extraction,
// the online agentic tuning loop, the rule-set accumulation, and the
// paper's evaluation hygiene protocol (reset, remount, repeat, average)
// on top of the simulated Lustre platform.
//
// The engine is safe for concurrent use: all per-run mutable state (the
// procfs parameter tree, the cost meter, the agent transcripts) is created
// per call, the accumulated rule set is published copy-on-write behind an
// atomic pointer, and every entry point takes a context.Context that
// cancels the run promptly.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"stellar/internal/agents"
	"stellar/internal/cluster"
	"stellar/internal/darshan"
	"stellar/internal/llm"
	"stellar/internal/lustre"
	"stellar/internal/manual"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/procfs"
	"stellar/internal/protocol"
	"stellar/internal/rag"
	"stellar/internal/rules"
	"stellar/internal/stats"
	"stellar/internal/workload"
)

// Options configures an Engine.
type Options struct {
	Spec          cluster.Spec
	TuningModel   string  // LLM acting as the Tuning Agent (paper: Claude-3.7-Sonnet)
	AnalysisModel string  // LLM acting as the Analysis Agent (paper: GPT-4o)
	ExtractModel  string  // LLM used in RAG extraction (paper: GPT-4o)
	Scale         float64 // workload scale factor
	MaxAttempts   int     // configuration trials per tuning run (paper: 5)
	Seed          int64

	// Faults is the engine-wide fault plan: every trial — evaluation reps
	// and tuning-loop runs alike — executes under it. The zero value is a
	// healthy cluster and leaves results and cache keys bit-identical to a
	// pre-fault engine. An Evaluate call overrides it with a non-nil
	// EvalRequest.Faults.
	Faults lustre.FaultPlan

	// Parallel bounds the worker pool Evaluate fans its repetitions over.
	// <= 1 runs strictly serially; higher values scale with cores. Per-rep
	// seeds are fixed by index, so results are bit-identical either way.
	Parallel int

	// Platform is the measurement backend every trial executes on. Nil
	// selects the in-process Lustre simulator. Passing a shared
	// runcache.Cache (over any backend) deduplicates identical trials
	// across Evaluate calls, tuning runs, and engines.
	Platform platform.Platform

	// Ablation switches (§5.4).
	DisableDescriptions bool // strip RAG-extracted descriptions (keep ranges)
	DisableAnalysis     bool // remove the Analysis Agent entirely
}

// Engine is a configured STELLAR instance bound to one cluster. One engine
// can serve concurrent Evaluate and Tune calls: nothing here is mutated
// mid-run except the rule-set pointer, which is swapped atomically.
type Engine struct {
	opts   Options
	reg    *params.Registry
	client llm.Client
	plat   platform.Platform

	mu      sync.Mutex // guards tunable
	tunable []*protocol.TunableParam

	rules atomic.Pointer[rules.Set]

	// trees recycles procfs parameter trees across runs: rendering a
	// configuration over defaults is per-trial work, but the tree itself
	// (a map sized to the whole registry) is reusable via SetDefaults.
	trees sync.Pool
}

// New creates an engine. client is the LLM backend (simllm offline, or any
// other llm.Client); each run wraps it in its own Meter for cost
// accounting.
func New(client llm.Client, opts Options) *Engine {
	if opts.Scale == 0 {
		opts.Scale = workload.DefaultScale
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 5
	}
	e := &Engine{
		opts:   opts,
		reg:    params.Lustre(),
		client: client,
		plat:   opts.Platform,
	}
	if e.plat == nil {
		e.plat = platform.Simulator{}
	}
	e.rules.Store(&rules.Set{})
	e.trees.New = func() any { return procfs.New(e.reg) }
	return e
}

// Platform returns the measurement backend trials execute on.
func (e *Engine) Platform() platform.Platform { return e.plat }

// Registry exposes the parameter registry.
func (e *Engine) Registry() *params.Registry { return e.reg }

// Rules returns the current global rule set. The returned set is a
// published snapshot: readers may use it freely but must not mutate it.
func (e *Engine) Rules() *rules.Set { return e.rules.Load() }

// SetRules replaces the global rule set (e.g. to reset between scenarios).
func (e *Engine) SetRules(s *rules.Set) {
	if s == nil {
		s = &rules.Set{}
	}
	e.rules.Store(s)
}

// Tunables returns the offline phase's extracted parameters, running the
// extraction on first use. The extraction is single-flight: the mutex is
// held across the whole run, so concurrent first callers wait for one
// extraction instead of each paying for their own (a real concern against
// a paid inference endpoint).
func (e *Engine) Tunables(ctx context.Context) ([]*protocol.TunableParam, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tunable != nil {
		return e.tunable, nil
	}
	if _, err := e.offlineLocked(ctx); err != nil {
		return nil, err
	}
	return e.tunable, nil
}

// Offline runs the RAG-based parameter extraction (§4.2): chunk the manual,
// build the vector index, filter writable parameters, extract definitions
// and ranges, and keep only the high-impact tunables. Calling it always
// re-runs the extraction (refreshing the cache Tunables serves from).
func (e *Engine) Offline(ctx context.Context) (*rag.ExtractorReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.offlineLocked(ctx)
}

func (e *Engine) offlineLocked(ctx context.Context) (*rag.ExtractorReport, error) {
	text := manual.FullText(e.reg)
	chunks := rag.ChunkText(text, 1024, 20)
	emb := rag.NewHashedTFIDF(384, chunks)
	index := rag.NewIndex(emb, chunks)
	ex := &rag.Extractor{Index: index, Client: e.client, Model: e.opts.ExtractModel, TopK: 20}
	tunables, report, err := ex.ExtractAll(ctx, procfs.New(e.reg))
	if err != nil {
		return nil, fmt.Errorf("core: offline extraction: %w", err)
	}
	e.tunable = tunables
	return report, nil
}

// RunOutcome is one measured application execution. Clamped lists the
// parameters whose proposed values were pulled into range before the run.
type RunOutcome struct {
	WallTime float64
	Clamped  []string
	Result   *lustre.Result
}

// execute runs the workload under cfg with the between-runs hygiene
// protocol (fresh file system state, caches, and mounts — a fresh platform
// trial gives exactly that). The parameter tree is created per call, so
// concurrent executions never share mutable state. The trial itself is
// delegated to the configured Platform, which may be the live simulator, a
// run cache, or a replay of recorded runs.
func (e *Engine) execute(ctx context.Context, w *workload.Workload, cfg params.Config, seed int64, sink lustre.TraceSink) (*RunOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap, err := e.snapshotConfig(cfg)
	if err != nil {
		return nil, err
	}
	res, err := e.plat.Run(ctx, platform.RunSpec{
		Spec: e.opts.Spec, Workload: w, Config: snap, Seed: seed,
		Faults: e.opts.Faults, Trace: sink,
	})
	if err != nil {
		return nil, err
	}
	return &RunOutcome{WallTime: res.WallTime, Clamped: res.Clamped, Result: res.Result}, nil
}

// snapshotConfig renders cfg over the registry defaults through a pooled
// procfs tree and returns a private snapshot safe to share across reps.
// The rendered state is exactly what a fresh tree plus a merged
// defaults+cfg Apply produced before: every writable parameter present, cfg
// values layered on top, unknown or read-only names rejected.
func (e *Engine) snapshotConfig(cfg params.Config) (params.Config, error) {
	tree := e.trees.Get().(*procfs.Tree)
	tree.SetDefaults()
	if err := tree.Apply(cfg); err != nil {
		e.trees.Put(tree)
		return nil, err
	}
	snap := tree.Snapshot()
	e.trees.Put(tree)
	return snap, nil
}

// EvalRequest is one measurement: a configuration run Reps times on a
// workload, repetition i seeded SeedBase + i*101.
type EvalRequest struct {
	Workload string
	Config   params.Config
	Reps     int
	SeedBase int64
	// Faults, when non-nil, replaces Options.Faults for this call, taken as
	// given: a zero plan is a healthy cluster even when Options.Faults is
	// set, so a robust search sweeps clean and faulted variants on one engine.
	Faults *lustre.FaultPlan
}

// Evaluate measures req.Config over req.Reps repetitions, as the paper's
// eight-run averaging does, and returns the per-rep wall times (owned by the
// caller) with their summary. The workload and the rendered config snapshot
// are built once and shared by every rep; reps fan out over a pool bounded
// by Options.Parallel. A rep's seed depends only on its index, so walls,
// summaries and run-cache keys are bit-identical to a serial run or to
// one-rep calls. The figures, the search, /v1/evaluate, /v1/sweeps and
// /v1/tune all measure through here.
func (e *Engine) Evaluate(ctx context.Context, req EvalRequest) ([]float64, stats.Summary, error) {
	faults := e.opts.Faults
	if req.Faults != nil {
		faults = *req.Faults
	}
	if err := faults.Validate(); err != nil {
		return nil, stats.Summary{}, fmt.Errorf("core: %w", err)
	}
	w, err := workload.Catalog(req.Workload, e.opts.Spec.TotalRanks(), e.opts.Scale)
	if err != nil {
		return nil, stats.Summary{}, err
	}
	snap, err := e.snapshotConfig(req.Config)
	if err != nil {
		return nil, stats.Summary{}, err
	}
	walls := make([]float64, req.Reps)
	err = pool.Map(ctx, e.opts.Parallel, req.Reps, func(ctx context.Context, i int) error {
		res, err := e.plat.Run(ctx, platform.RunSpec{
			Spec: e.opts.Spec, Workload: w, Config: snap,
			Seed: req.SeedBase + int64(i)*101, Faults: faults,
		})
		if err != nil {
			return err
		}
		walls[i] = res.WallTime
		return nil
	})
	if err != nil {
		return nil, stats.Summary{}, err
	}
	return walls, stats.Summarize(walls), nil
}

// TuneResult is the outcome of one complete Tuning Run.
type TuneResult struct {
	Workload  string
	History   []protocol.HistoryEntry // entry 0 = default execution
	Best      protocol.HistoryEntry
	BestCfg   params.Config
	EndReason string
	Report    string
	Usage     map[string]llm.Usage // per agent session
	Requests  map[string]int
	Messages  []llm.Message // tuning agent transcript (Fig. 10)
	Analysis  []llm.Message // analysis agent transcript
}

// Speedups returns the per-iteration speedup series relative to the
// default execution (iteration 0 = 1.0), the Figure 6/7 y-axis.
func (r *TuneResult) Speedups() []float64 {
	out := make([]float64, len(r.History))
	base := r.History[0].WallTime
	for i, h := range r.History {
		out[i] = base / h.WallTime
	}
	return out
}

// runnerFunc adapts a closure to agents.Runner.
type runnerFunc func(ctx context.Context, cfg params.Config, rationale map[string]string) (protocol.HistoryEntry, error)

func (f runnerFunc) Run(ctx context.Context, cfg params.Config, rationale map[string]string) (protocol.HistoryEntry, error) {
	return f(ctx, cfg, rationale)
}

// Tune performs one complete Tuning Run on the named workload: initial
// default execution with Darshan tracing, Analysis Agent report, the
// Tuning Agent's trial-and-error loop, and rule-set accumulation. All
// run-local state (meter, agents, iteration counter) lives on the stack,
// so concurrent Tune calls on one engine are safe; the merged rule set is
// republished copy-on-write, last writer wins.
func (e *Engine) Tune(ctx context.Context, workloadName string) (*TuneResult, error) {
	tunables, err := e.Tunables(ctx)
	if err != nil {
		return nil, err
	}
	w, err := workload.Catalog(workloadName, e.opts.Spec.TotalRanks(), e.opts.Scale)
	if err != nil {
		return nil, err
	}
	// A fresh meter per tuning run: cost-accounting lineage starts clean
	// and concurrent runs never interleave their session statistics.
	meter := llm.NewMeter(e.client)

	seed := e.opts.Seed
	if seed == 0 {
		seed = 1
	}

	// Initial run with Darshan instrumentation.
	collector := darshan.NewCollector(w.Interface)
	defaults := params.DefaultConfig(e.reg)
	initial, err := e.execute(ctx, w, defaults, seed, collector)
	if err != nil {
		return nil, fmt.Errorf("core: initial run: %w", err)
	}
	log := collector.Log("1", w.Name, w.NumRanks())

	// Analysis Agent (unless ablated).
	var analysis *agents.AnalysisAgent
	report := ""
	if !e.opts.DisableAnalysis {
		analysis = &agents.AnalysisAgent{
			Client: meter,
			Model:  e.opts.AnalysisModel,
			Frames: log.Frames(),
			Header: log.HeaderText(),
			Docs:   log.ColumnDocs(),
		}
		report, _, err = analysis.InitialReport(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: analysis report: %w", err)
		}
	}

	agentParams := tunables
	if e.opts.DisableDescriptions {
		agentParams = stripDescriptions(tunables)
	}

	iter := 0
	runner := runnerFunc(func(ctx context.Context, cfg params.Config, rationale map[string]string) (protocol.HistoryEntry, error) {
		iter++
		out, err := e.execute(ctx, w, cfg, seed+int64(iter)*31, nil)
		if err != nil {
			return protocol.HistoryEntry{}, err
		}
		return protocol.HistoryEntry{
			Config:   map[string]int64(cfg),
			WallTime: out.WallTime,
			Clamped:  out.Clamped,
		}, nil
	})

	// The rule set used by this run is the snapshot published at start;
	// Reflect & Summarize merges into a copy of it.
	snapshot := e.rules.Load()

	tres, err := agents.RunTuning(ctx, agents.TuningOptions{
		Client:   meter,
		Model:    e.opts.TuningModel,
		Params:   agentParams,
		Cluster:  e.opts.Spec.Describe(),
		Report:   report,
		Rules:    snapshot,
		Defaults: defaults,
		InitialRun: protocol.HistoryEntry{
			Iteration: 0,
			Config:    map[string]int64(defaults),
			WallTime:  initial.WallTime,
			Clamped:   initial.Clamped,
		},
		MaxAttempts: e.opts.MaxAttempts,
		Runner:      runner,
		Analysis:    analysis,
	})
	if err != nil {
		return nil, err
	}
	// Rule accumulation: the merged set becomes the new global set. The
	// published set is a private clone, so readers holding the previous
	// pointer — or the TuningResult's — never observe a half-merged set.
	if tres.RuleSet != nil {
		e.rules.Store(tres.RuleSet.Clone())
	}

	out := &TuneResult{
		Workload:  workloadName,
		History:   tres.History,
		Best:      tres.Best,
		BestCfg:   configOf(tres.Best),
		EndReason: tres.EndReason,
		Report:    report,
		Usage:     map[string]llm.Usage{},
		Requests:  map[string]int{},
		Messages:  tres.Messages,
	}
	if analysis != nil {
		out.Analysis = analysis.Messages()
	}
	for _, s := range []string{"tuning-agent", "analysis-agent"} {
		out.Usage[s] = meter.SessionUsage(s)
		out.Requests[s] = meter.SessionRequests(s)
	}
	return out, nil
}

func configOf(h protocol.HistoryEntry) params.Config {
	cfg := params.Config{}
	for k, v := range h.Config {
		cfg[k] = v
	}
	return cfg
}

func stripDescriptions(in []*protocol.TunableParam) []*protocol.TunableParam {
	out := make([]*protocol.TunableParam, len(in))
	for i, p := range in {
		cp := *p
		cp.Description = ""
		cp.Impact = ""
		out[i] = &cp
	}
	return out
}
