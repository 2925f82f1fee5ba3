// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated platform: Figures 2 and 5-10 plus the
// §5.7 cost table, and an extra iteration-cost comparison against
// traditional autotuners. Each experiment returns a renderable Table (or
// timeline text) whose rows mirror the paper's series.
//
// Arms (workloads, ablation variants, models, sweep points) and the reps
// and candidates inside them fan out under the ctx's pool.Budget. Tables
// are bit-identical at any budget: seeds are fixed by index and rows are
// assembled in input order.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"stellar/internal/cluster"
	"stellar/internal/core"
	"stellar/internal/llm/simllm"
	"stellar/internal/platform"
	"stellar/internal/workload"
)

// Config scopes an experiment run.
type Config struct {
	Spec  cluster.Spec
	Scale float64 // workload scale (DefaultScale reproduces the documented reduction)
	Reps  int     // repetitions for averaged measurements (paper: 8)
	Seed  int64

	// Platform is the measurement backend every engine in the experiment
	// executes trials on. Nil selects the live simulator per engine. A
	// shared runcache.Cache here deduplicates identical trials across all
	// arms of a figure (and across figures); one built with Dir and Traces
	// records every run, traced ones with their events, and the same cache
	// over platform.NoRecording regenerates tables from those recordings
	// without any simulation.
	Platform platform.Platform
}

// Defaults fills unset fields with the paper's protocol.
func (c Config) Defaults() Config {
	if c.Spec.ClientNodes == 0 {
		c.Spec = cluster.Default()
	}
	if c.Scale == 0 {
		c.Scale = workload.DefaultScale
	}
	if c.Reps == 0 {
		c.Reps = 8
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// newEngine builds a STELLAR engine with the paper's model assignment
// (Claude-3.7-Sonnet tuning, GPT-4o analysis and extraction).
func newEngine(c Config, tuningModel string, disableDescs, disableAnalysis bool) *core.Engine {
	if tuningModel == "" {
		tuningModel = simllm.Claude37
	}
	return core.New(simllm.New(simllm.GPT4o), core.Options{
		Spec:                c.Spec,
		TuningModel:         tuningModel,
		AnalysisModel:       simllm.GPT4o,
		ExtractModel:        simllm.GPT4o,
		Scale:               c.Scale,
		Seed:                c.Seed,
		MaxAttempts:         5,
		Platform:            c.Platform,
		DisableDescriptions: disableDescs,
		DisableAnalysis:     disableAnalysis,
	})
}

// platformOrSim returns the configured backend, defaulting to the live
// simulator, for experiment code that issues trials directly rather than
// through an engine.
func (c Config) platformOrSim() platform.Platform {
	if c.Platform != nil {
		return c.Platform
	}
	return platform.Simulator{}
}

// Table is a renderable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render prints the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func fseries(sp []float64) string {
	parts := make([]string, len(sp))
	for i, v := range sp {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	return strings.Join(parts, " ")
}

// Experiment is a named, runnable experiment. Run honours ctx: cancelling
// it aborts the regeneration promptly with ctx.Err().
type Experiment struct {
	ID  string
	Run func(context.Context, Config) (*Table, error)
}

// All lists the experiments in paper order. Figure 10 is textual and
// exposed separately via Fig10CaseStudy.
func All() []Experiment {
	return []Experiment{
		{"fig2", Fig2Hallucination},        // LLM hallucination vs RAG extraction
		{"fig5", Fig5TuningPerformance},    // Tuning performance vs default and expert
		{"fig6", Fig6RuleSetInterpolation}, // Rule-set interpolation on benchmarks
		{"fig7", Fig7RuleSetExtrapolation}, // Rule-set extrapolation to real applications
		{"fig8", Fig8Ablation},             // Component ablations on MDWorkbench_8K
		{"fig9", Fig9ModelComparison},      // Model comparison on IOR_16M
		{"cost", CostTable},                // Token usage and prompt-cache statistics (§5.7)
		{"iters", IterationCost},           // Iteration cost vs traditional autotuners
		{"sweep", RetrievalSweep},          // RAG retrieval-depth and chunk-size sweep (extension)
		{"search", TuningSearch},           // Adaptive tuning search via successive halving (extension)
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
