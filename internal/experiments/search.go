package experiments

import (
	"context"
	"fmt"
	"strings"

	"stellar/internal/core"
	"stellar/internal/params"
	"stellar/internal/search"
	"stellar/internal/stats"
)

// TuningSearch is the search job family: instead of measuring fixed grids
// (the sweep family) it runs the adaptive successive-halving optimizer
// over a random candidate pool on one benchmark, logging each round. It
// demonstrates the closed-loop counterpart to the paper's agentic tuner:
// no LLM in the loop, just budgeted black-box search through the same
// platform/cache stack, so the round log doubles as a cache-effectiveness
// trace (survivor promotions re-request runs earlier rounds paid for).
func TuningSearch(ctx context.Context, c Config) (*Table, error) {
	c = c.Defaults()
	eng := newEngine(c, "", false, false)
	opts := search.Options{
		Workload:   "IOR_16M",
		Candidates: 8,
		Eta:        2,
		MinReps:    1,
		MaxReps:    c.Reps,
		Seed:       c.Seed,
		Registry:   eng.Registry(),
		Env: params.SystemEnv(
			int64(c.Spec.MemoryMBPerNode), int64(c.Spec.OSTCount), nil),
	}
	eval := func(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64) ([]float64, stats.Summary, error) {
		return eng.Evaluate(ctx, core.EvalRequest{Workload: wl, Config: cfg, Reps: reps, SeedBase: seedBase})
	}
	res, err := search.Run(ctx, eval, opts, nil)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "Search", Title: "Adaptive tuning search (successive halving) on IOR_16M",
		Columns: []string{"round", "reps", "evaluated", "survivors", "best score", "best config (non-default)"},
	}
	for _, rd := range res.Rounds {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rd.Round),
			fmt.Sprintf("%d", rd.Reps),
			fmt.Sprintf("%d", rd.Evaluated),
			fmt.Sprintf("%d", len(rd.Survivors)),
			fmt.Sprintf("%.3f", rd.Best.Score),
			diffFromDefault(rd.Best.Config, eng.Registry()),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("winner: candidate %d at %d reps, %.2fx over the default configuration",
			res.Winner.Index, res.Winner.Reps, res.Speedup()),
		fmt.Sprintf("budget: %d evaluations, %d rep-runs requested vs %d for exhaustive pool evaluation",
			res.Evaluations, res.RepRuns, res.Candidates*opts.MaxReps),
		"deterministic: the same seed reproduces the same candidates, rounds, and winner")
	return t, nil
}

// diffFromDefault renders the parameters where cfg departs from the
// registry defaults, keeping search rows readable.
func diffFromDefault(cfg map[string]int64, reg *params.Registry) string {
	c := params.Config{}
	for k, v := range cfg {
		c[k] = v
	}
	defaults := params.DefaultConfig(reg)
	var parts []string
	for _, k := range c.Names() {
		if defaults[k] != c[k] {
			parts = append(parts, fmt.Sprintf("%s=%d", k, c[k]))
		}
	}
	if len(parts) == 0 {
		return "(defaults)"
	}
	return strings.Join(parts, " ")
}
