// Package search is the adaptive tuning-search subsystem: a budgeted
// optimizer that *finds* good parameter configurations rather than merely
// measuring given ones. It runs successive halving over a pool of randomly
// sampled candidate configurations — every candidate is evaluated cheaply
// (few repetitions), the best 1/eta survive, and survivors are re-measured
// at eta times the repetitions until one winner remains at full precision.
//
// All measurements flow through a caller-supplied EvalFunc, which in
// practice wraps core.Engine.Evaluate — so every trial descends through
// the platform abstraction and the shared run cache. That makes the search
// cache-aware for free: promoting a survivor from r to eta*r repetitions
// re-requests the same (config, seed) runs it already paid for, and the
// cache serves them without touching the simulator. The whole search is
// deterministic given Options.Seed: candidate sampling, evaluation seeds,
// and survivor selection (stable score-then-index ordering) are all pure
// functions of it, so two runs produce the identical winner and round log.
//
// The Objective scalarizes a candidate's measurement series into one
// comparable number (lower is better), following the composite-indicator
// idea of weighting multiple performance indicators rather than ranking on
// a single metric.
package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"stellar/internal/params"
	"stellar/internal/pool"
	"stellar/internal/stats"
)

// EvalFunc measures one configuration over reps repetitions and returns the
// per-repetition wall times plus their summary. In practice it wraps
// core.Engine.Evaluate, with the arguments as the fields of a
// core.EvalRequest; serving layers add admission control around it.
type EvalFunc func(ctx context.Context, workload string, cfg params.Config, reps int, seedBase int64) ([]float64, stats.Summary, error)

// Objective scalarizes one candidate's measurement into a score; lower is
// better. Implementations must be pure functions of their inputs so the
// search stays deterministic.
type Objective interface {
	Name() string
	Score(walls []float64, sum stats.Summary) float64
}

// ObjectiveSpec is the wire/flag form of an objective. Kind selects the
// scalarization:
//
//   - "mean" (default): the mean wall time — the paper's headline metric.
//   - "tail": the worst repetition — penalizes jittery configurations that
//     look good on average but stall individual runs.
//   - "composite": MeanWeight*mean + TailWeight*worst + CIWeight*ci90, a
//     weighted composite indicator over the three measurement statistics.
//   - "robust": CleanWeight*mean(clean) + FaultWeight*max over fault
//     variants of mean(variant) — scores a candidate across a clean run
//     plus Perturbations faulted variants, so the winner must hold up under
//     injected degradation, not just on a healthy cluster. The measurement
//     series must be the concatenation PerturbedEval produces.
type ObjectiveSpec struct {
	Kind       string  `json:"kind,omitempty"`
	MeanWeight float64 `json:"mean_weight,omitempty"`
	TailWeight float64 `json:"tail_weight,omitempty"`
	CIWeight   float64 `json:"ci_weight,omitempty"`

	// CleanWeight and FaultWeight balance the robust objective; both zero
	// means an even 0.5/0.5 split.
	CleanWeight float64 `json:"clean_weight,omitempty"`
	FaultWeight float64 `json:"fault_weight,omitempty"`

	// Perturbations is the fault-variant count K the robust objective
	// splits its series by. It is orchestration state, not a client knob:
	// the serving layer and CLI derive it from their fault-variants setting,
	// so it stays off the wire.
	Perturbations int `json:"-"`
}

// Build compiles the spec into an Objective, rejecting unknown kinds and
// degenerate weight sets a search could not rank candidates with.
func (s ObjectiveSpec) Build() (Objective, error) {
	switch s.Kind {
	case "", "mean":
		return meanObjective{}, nil
	case "tail":
		return tailObjective{}, nil
	case "composite":
		if s.MeanWeight < 0 || s.TailWeight < 0 || s.CIWeight < 0 {
			return nil, fmt.Errorf("search: composite weights must be >= 0")
		}
		if s.MeanWeight+s.TailWeight+s.CIWeight == 0 {
			return nil, fmt.Errorf("search: composite objective needs at least one positive weight")
		}
		return compositeObjective{mean: s.MeanWeight, tail: s.TailWeight, ci: s.CIWeight}, nil
	case "robust":
		if s.CleanWeight < 0 || s.FaultWeight < 0 {
			return nil, fmt.Errorf("search: robust weights must be >= 0")
		}
		clean, fault := s.CleanWeight, s.FaultWeight
		if clean+fault == 0 {
			clean, fault = 0.5, 0.5
		}
		if s.Perturbations < 1 {
			return nil, fmt.Errorf("search: robust objective needs at least 1 fault variant")
		}
		return robustObjective{variants: s.Perturbations, clean: clean, fault: fault}, nil
	default:
		return nil, fmt.Errorf("search: unknown objective kind %q (want mean, tail, composite, or robust)", s.Kind)
	}
}

type meanObjective struct{}

func (meanObjective) Name() string { return "mean" }
func (meanObjective) Score(walls []float64, sum stats.Summary) float64 {
	return sum.Mean
}

type tailObjective struct{}

func (tailObjective) Name() string { return "tail" }
func (tailObjective) Score(walls []float64, sum stats.Summary) float64 {
	return worst(walls)
}

type compositeObjective struct{ mean, tail, ci float64 }

func (o compositeObjective) Name() string {
	return fmt.Sprintf("composite(mean*%g+tail*%g+ci*%g)", o.mean, o.tail, o.ci)
}
func (o compositeObjective) Score(walls []float64, sum stats.Summary) float64 {
	return o.mean*sum.Mean + o.tail*worst(walls) + o.ci*sum.CI90
}

// robustObjective scores a concatenated clean-plus-faulted series: the
// walls slice is variants+1 equal chunks in variant order (chunk 0 clean,
// as produced by PerturbedEval), and the score is clean*mean(chunk 0) +
// fault*max over fault chunks of mean(chunk) — the worst-case fault variant
// dominates, so a configuration cannot win by excelling under one fault
// schedule while collapsing under another.
type robustObjective struct {
	variants     int
	clean, fault float64
}

func (o robustObjective) Name() string {
	return fmt.Sprintf("robust(clean*%g+fault*%g, %d variants)", o.clean, o.fault, o.variants)
}

func (o robustObjective) Score(walls []float64, sum stats.Summary) float64 {
	chunks := o.variants + 1
	if len(walls) < chunks || len(walls)%chunks != 0 {
		// Not a PerturbedEval series (e.g. a caller wired the objective to a
		// plain eval): degrade to the mean rather than mis-slicing.
		return sum.Mean
	}
	per := len(walls) / chunks
	mean := func(c int) float64 {
		total := 0.0
		for _, v := range walls[c*per : (c+1)*per] {
			total += v
		}
		return total / float64(per)
	}
	worstFault := math.Inf(-1)
	for c := 1; c < chunks; c++ {
		if m := mean(c); m > worstFault {
			worstFault = m
		}
	}
	return o.clean*mean(0) + o.fault*worstFault
}

// PerturbedEval builds the EvalFunc a robust search runs on: for each
// candidate it measures variant 0 (clean) through variant K under
// variantEval and returns the concatenated wall series — fixed variant
// order, reps repetitions per variant — which is exactly the layout
// robustObjective scores. The summary spans the whole series.
func PerturbedEval(variants int, variantEval func(ctx context.Context, workload string, cfg params.Config, reps int, seedBase int64, variant int) ([]float64, error)) EvalFunc {
	return func(ctx context.Context, workload string, cfg params.Config, reps int, seedBase int64) ([]float64, stats.Summary, error) {
		all := make([]float64, 0, (variants+1)*reps)
		for v := 0; v <= variants; v++ {
			walls, err := variantEval(ctx, workload, cfg, reps, seedBase, v)
			if err != nil {
				return nil, stats.Summary{}, fmt.Errorf("fault variant %d: %w", v, err)
			}
			if len(walls) != reps {
				return nil, stats.Summary{}, fmt.Errorf("fault variant %d: %d walls, want %d", v, len(walls), reps)
			}
			all = append(all, walls...)
		}
		return all, stats.Summarize(all), nil
	}
}

func worst(walls []float64) float64 {
	w := math.Inf(-1)
	for _, v := range walls {
		if v > w {
			w = v
		}
	}
	if math.IsInf(w, -1) {
		return 0
	}
	return w
}

// Options scopes one search. The zero value is not runnable: Workload is
// required; everything else has a default.
type Options struct {
	// Workload names the workload to tune (workload.Catalog names).
	Workload string
	// Space lists the parameter names to search over. Empty means the
	// registry's ground-truth tunable set (writable, non-binary,
	// performance-critical, fully documented).
	Space []string
	// Candidates is the size of the random candidate pool (default 16,
	// minimum 2 — one candidate is not a search).
	Candidates int
	// Eta is the halving factor: each round keeps ceil(alive/Eta) survivors
	// and multiplies repetitions by Eta (default 2).
	Eta int
	// MinReps is the repetition count of the first, cheapest round
	// (default 1). MaxReps is the precision the winner is measured at
	// (default 8); survivors are promoted toward it geometrically.
	MinReps, MaxReps int
	// Seed drives candidate sampling and is the evaluation seed base. The
	// search result is a pure function of (Options, platform behaviour).
	Seed int64
	// Objective ranks candidates (nil = mean wall time).
	Objective Objective
	// Registry is the parameter table to sample from (nil = params.Lustre()).
	Registry *params.Registry
	// Env supplies system facts (memory_mb, ost_count) for dependent bounds;
	// nil falls back to the default cluster's facts.
	Env params.Env
}

func (o Options) WithDefaults() Options {
	if o.Candidates == 0 {
		o.Candidates = 16
	}
	if o.Eta < 2 {
		o.Eta = 2
	}
	if o.MinReps < 1 {
		o.MinReps = 1
	}
	if o.MaxReps < o.MinReps {
		o.MaxReps = max(o.MinReps, 8)
	}
	if o.Objective == nil {
		o.Objective = meanObjective{}
	}
	if o.Registry == nil {
		o.Registry = params.Lustre()
	}
	if len(o.Space) == 0 {
		o.Space = params.TunableNames(o.Registry)
	}
	if o.Env == nil {
		o.Env = params.SystemEnv(196*1024, 5, nil)
	}
	return o
}

// Candidate is one evaluated configuration at its latest precision.
type Candidate struct {
	// Index identifies the candidate within the sampled pool; index 0 is
	// always the default configuration, so the search never regresses below
	// the baseline it is trying to beat.
	Index        int              `json:"index"`
	Config       map[string]int64 `json:"config"`
	Score        float64          `json:"score"`
	Reps         int              `json:"reps"`
	MeanSeconds  float64          `json:"mean_s"`
	CI90Seconds  float64          `json:"ci90_s"`
	WallsSeconds []float64        `json:"walls_s"`
}

// Round is one successive-halving round: every surviving candidate was
// (re-)measured at Reps repetitions, scored, and culled to Survivors.
type Round struct {
	Round     int       `json:"round"`
	Reps      int       `json:"reps"`
	Evaluated int       `json:"evaluated"`
	Survivors []int     `json:"survivors"`
	Best      Candidate `json:"best"`
}

// Result is a completed search: the winning configuration measured at full
// precision, the per-round log, and the evaluation budget actually spent.
type Result struct {
	Workload   string    `json:"workload"`
	Objective  string    `json:"objective"`
	Candidates int       `json:"candidates"`
	Rounds     []Round   `json:"rounds"`
	Winner     Candidate `json:"winner"`
	// Evaluations counts EvalFunc calls; RepRuns sums the repetitions those
	// calls requested. RepRuns bounds the simulator work from above — a
	// caching platform re-serves every repetition already measured in an
	// earlier round, which is what makes halving cheaper than evaluating
	// the full pool at MaxReps (Candidates * MaxReps rep-runs) exhaustively.
	Evaluations int `json:"evaluations"`
	RepRuns     int `json:"rep_runs"`
	// DefaultMean is the default configuration's (candidate 0) mean wall
	// time measured at the winner's precision (MaxReps), so Speedup
	// compares equals — the baseline measurement shares the early rounds'
	// cached repetitions, so it costs at most MaxReps-MinReps new runs.
	DefaultMean float64 `json:"default_mean_s"`
}

// Speedup is the winner's improvement over the default configuration as a
// mean-wall-time ratio at equal precision. It is usually > 1 but not
// guaranteed: low-precision early rounds can cull the defaults on a noisy
// rep, and the tail/composite objectives select the winner by a score
// other than the mean this ratio compares.
func (r *Result) Speedup() float64 {
	if r.DefaultMean <= 0 || r.Winner.MeanSeconds <= 0 {
		return 0
	}
	return r.DefaultMean / r.Winner.MeanSeconds
}

// RoundsFor predicts how many halving rounds Run will execute for opts —
// the denominator for progress reporting. It mirrors Run's loop exactly:
// each round either culls the pool or raises precision, so the count is a
// pure function of (Candidates, Eta, MinReps, MaxReps).
func RoundsFor(opts Options) int {
	opts = opts.WithDefaults()
	alive, reps, rounds := opts.Candidates, opts.MinReps, 0
	for {
		rounds++
		alive = cull(alive, opts.Eta)
		if alive == 1 && reps >= opts.MaxReps {
			return rounds
		}
		reps = promote(reps, opts.Eta, opts.MaxReps)
	}
}

// cull is ceil(alive/eta) for alive >= 1, without the overflow of
// (alive+eta-1)/eta at huge eta.
func cull(alive, eta int) int { return 1 + (alive-1)/eta }

// promote is min(reps*eta, maxReps), saturating instead of overflowing.
func promote(reps, eta, maxReps int) int {
	if reps > maxReps/eta {
		return maxReps
	}
	return reps * eta
}

// Run executes the search. onRound, when non-nil, observes each completed
// round in order — the serving layer streams these as NDJSON progress
// lines. Cancelling ctx aborts the search with ctx.Err().
func Run(ctx context.Context, eval EvalFunc, opts Options, onRound func(Round)) (*Result, error) {
	opts = opts.WithDefaults()
	if opts.Workload == "" {
		return nil, fmt.Errorf("search: missing workload")
	}
	if opts.Candidates < 2 {
		return nil, fmt.Errorf("search: need at least 2 candidates, got %d", opts.Candidates)
	}
	pool0, err := samplePool(opts)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Workload:   opts.Workload,
		Objective:  opts.Objective.Name(),
		Candidates: len(pool0),
	}
	alive := make([]int, len(pool0))
	for i := range alive {
		alive[i] = i
	}

	reps := opts.MinReps
	for round := 1; ; round++ {
		// Measure every surviving candidate at this round's precision, under
		// the ctx's pool.Budget. The fan-out is index-sloted (pool.Values),
		// so results land in input order regardless of scheduling.
		scored, err := pool.Values(ctx, len(alive), func(ctx context.Context, i int) (Candidate, error) {
			idx := alive[i]
			walls, sum, err := eval(ctx, opts.Workload, pool0[idx], reps, opts.Seed)
			if err != nil {
				return Candidate{}, fmt.Errorf("candidate %d: %w", idx, err)
			}
			return Candidate{
				Index:        idx,
				Config:       pool0[idx],
				Score:        opts.Objective.Score(walls, sum),
				Reps:         reps,
				MeanSeconds:  sum.Mean,
				CI90Seconds:  sum.CI90,
				WallsSeconds: walls,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		res.Evaluations += len(alive)
		res.RepRuns += len(alive) * reps

		// Rank by score with the pool index as the tiebreak, so equal scores
		// cull deterministically.
		sort.SliceStable(scored, func(a, b int) bool {
			if scored[a].Score != scored[b].Score {
				return scored[a].Score < scored[b].Score
			}
			return scored[a].Index < scored[b].Index
		})

		keep := cull(len(scored), opts.Eta)
		survivors := make([]int, keep)
		for i := 0; i < keep; i++ {
			survivors[i] = scored[i].Index
		}
		rd := Round{
			Round:     round,
			Reps:      reps,
			Evaluated: len(alive),
			Survivors: survivors,
			Best:      scored[0],
		}
		res.Rounds = append(res.Rounds, rd)
		if onRound != nil {
			onRound(rd)
		}

		alive = survivors
		if len(alive) == 1 && reps >= opts.MaxReps {
			res.Winner = scored[0]
			break
		}
		reps = promote(reps, opts.Eta, opts.MaxReps)
	}

	// Baseline at the winner's precision: if the defaults (candidate 0)
	// were culled before the final round, re-measure them at MaxReps so
	// Speedup compares equal-precision means. The shared seed base means a
	// caching platform re-serves the repetitions earlier rounds paid for.
	if res.Winner.Index == 0 {
		res.DefaultMean = res.Winner.MeanSeconds
	} else {
		_, sum, err := eval(ctx, opts.Workload, pool0[0], opts.MaxReps, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		res.Evaluations++
		res.RepRuns += opts.MaxReps
		res.DefaultMean = sum.Mean
	}
	return res, nil
}

// samplePool draws the candidate configurations. Candidate 0 is always the
// default configuration (the baseline the search must beat); the rest are
// sampled uniformly per parameter — log-uniformly across ranges spanning
// more than three decades, so byte-sized parameters explore their whole
// scale rather than clustering at the top. Dependent bounds are enforced by
// clamping against the candidate's own values. Exact duplicates are
// redrawn a bounded number of times and then kept: a caching platform makes
// a duplicate evaluation free, so duplicates cost budget accounting, not
// simulator time.
func samplePool(opts Options) ([]params.Config, error) {
	defaults := params.DefaultConfig(opts.Registry)
	env := make(params.Env, len(opts.Env)+len(defaults))
	for k, v := range opts.Env {
		env[k] = v
	}
	for k, v := range defaults {
		if _, ok := env[k]; !ok {
			env[k] = v
		}
	}

	space := make([]string, len(opts.Space))
	copy(space, opts.Space)
	sort.Strings(space)
	for _, n := range space {
		p, ok := opts.Registry.Get(n)
		if !ok {
			return nil, fmt.Errorf("search: unknown parameter %q", n)
		}
		if !p.Writable {
			return nil, fmt.Errorf("search: parameter %q is read-only", n)
		}
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	seen := map[string]bool{}
	fingerprint := func(c params.Config) string {
		out := ""
		for _, k := range c.Names() {
			out += fmt.Sprintf("%s=%d;", k, c[k])
		}
		return out
	}

	cands := make([]params.Config, 0, opts.Candidates)
	base := params.Config{}
	for _, n := range space {
		base[n] = defaults[n]
	}
	cands = append(cands, base)
	seen[fingerprint(base)] = true

	for len(cands) < opts.Candidates {
		var cand params.Config
		for attempt := 0; attempt < 8; attempt++ {
			c := params.Config{}
			for _, n := range space {
				p, _ := opts.Registry.Get(n)
				lo, hi, err := p.Bounds(env)
				if err != nil {
					// Dependent bound referencing another sampled parameter:
					// fall back to the static range; Clamp repairs it below.
					lo, hi = p.Min, p.Max
				}
				c[n] = sampleValue(rng, lo, hi)
			}
			c, _ = params.Clamp(c, opts.Registry, env)
			if !seen[fingerprint(c)] || attempt == 7 {
				cand = c
				break
			}
		}
		seen[fingerprint(cand)] = true
		cands = append(cands, cand)
	}
	return cands, nil
}

// sampleValue draws one value in [lo, hi]: uniformly for narrow ranges,
// log-uniformly once the range spans more than three decades so huge
// byte-valued domains are explored across their whole scale.
func sampleValue(rng *rand.Rand, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	span := hi - lo
	if span <= 1000 {
		return lo + rng.Int63n(span+1)
	}
	floor := lo
	if floor < 1 {
		floor = 1
	}
	v := int64(math.Round(float64(floor) * math.Exp(rng.Float64()*math.Log(float64(hi)/float64(floor)))))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
