package core

import (
	"context"
	"strings"
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/llm/simllm"
	"stellar/internal/params"
	"stellar/internal/rules"
)

func testEngine(t *testing.T, opt func(*Options)) *Engine {
	t.Helper()
	opts := Options{
		Spec:          cluster.Default(),
		TuningModel:   simllm.Claude37,
		AnalysisModel: simllm.GPT4o,
		ExtractModel:  simllm.GPT4o,
		Scale:         0.05, // small for unit tests
		Seed:          3,
	}
	if opt != nil {
		opt(&opts)
	}
	return New(simllm.New(simllm.GPT4o), opts)
}

func TestOfflineSelectsThirteen(t *testing.T) {
	eng := testEngine(t, nil)
	rep, err := eng.Offline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := params.TunableNames(eng.Registry())
	if len(rep.Selected) != len(want) {
		t.Fatalf("selected %d, want %d: %v", len(rep.Selected), len(want), rep.Selected)
	}
	tunables, err := eng.Tunables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tunables) != len(want) {
		t.Fatalf("tunables = %d", len(tunables))
	}
}

func TestTuneImprovesIOR(t *testing.T) {
	eng := testEngine(t, nil)
	res, err := eng.Tune(context.Background(), "IOR_16M")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 || len(res.History) > 6 {
		t.Fatalf("history length = %d", len(res.History))
	}
	sp := res.Speedups()
	best := 0.0
	for _, s := range sp {
		if s > best {
			best = s
		}
	}
	if best < 2.0 {
		t.Fatalf("IOR_16M speedup only %.2fx", best)
	}
	if res.EndReason == "" || res.Report == "" {
		t.Fatal("missing end reason or report")
	}
	if res.Usage["tuning-agent"].InputTokens == 0 {
		t.Fatal("no token accounting")
	}
	if eng.Rules().Empty() {
		t.Fatal("no rules accumulated")
	}
}

func TestTuneAccumulatesRulesAcrossWorkloads(t *testing.T) {
	eng := testEngine(t, nil)
	if _, err := eng.Tune(context.Background(), "IOR_64K"); err != nil {
		t.Fatal(err)
	}
	n1 := eng.Rules().Len()
	if _, err := eng.Tune(context.Background(), "IOR_16M"); err != nil {
		t.Fatal(err)
	}
	if eng.Rules().Len() <= n1 {
		t.Fatalf("rules did not grow: %d -> %d", n1, eng.Rules().Len())
	}
}

func TestRulesImproveFirstGuess(t *testing.T) {
	teacher := testEngine(t, nil)
	if _, err := teacher.Tune(context.Background(), "MDWorkbench_8K"); err != nil {
		t.Fatal(err)
	}
	snapshot := teacher.Rules().JSON()

	fresh := testEngine(t, nil)
	without, err := fresh.Tune(context.Background(), "MDWorkbench_2K")
	if err != nil {
		t.Fatal(err)
	}
	informed := testEngine(t, nil)
	set, err := rules.Parse(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	informed.SetRules(set)
	with, err := informed.Tune(context.Background(), "MDWorkbench_2K")
	if err != nil {
		t.Fatal(err)
	}
	if with.Speedups()[1] < without.Speedups()[1]*0.99 {
		t.Fatalf("rules did not improve the first guess: %.2f vs %.2f",
			with.Speedups()[1], without.Speedups()[1])
	}
}

func TestAblationsDegrade(t *testing.T) {
	full := testEngine(t, nil)
	fres, err := full.Tune(context.Background(), "MDWorkbench_8K")
	if err != nil {
		t.Fatal(err)
	}
	bestOf := func(sp []float64) float64 {
		m := 0.0
		for _, s := range sp {
			if s > m {
				m = s
			}
		}
		return m
	}
	fullBest := bestOf(fres.Speedups())

	noDesc := testEngine(t, func(o *Options) { o.DisableDescriptions = true })
	dres, err := noDesc.Tune(context.Background(), "MDWorkbench_8K")
	if err != nil {
		t.Fatal(err)
	}
	if bestOf(dres.Speedups()) >= fullBest*0.9 {
		t.Fatalf("No Descriptions should clearly degrade: full %.2f vs %.2f",
			fullBest, bestOf(dres.Speedups()))
	}

	noAn := testEngine(t, func(o *Options) { o.DisableAnalysis = true })
	ares, err := noAn.Tune(context.Background(), "MDWorkbench_8K")
	if err != nil {
		t.Fatal(err)
	}
	if ares.Report != "" {
		t.Fatal("No Analysis still produced a report")
	}
	if bestOf(ares.Speedups()) >= fullBest*0.9 {
		t.Fatalf("No Analysis should clearly degrade: full %.2f vs %.2f",
			fullBest, bestOf(ares.Speedups()))
	}
}

func TestEvaluateRepeatsWithVariance(t *testing.T) {
	eng := testEngine(t, nil)
	_, s, err := eng.Evaluate(context.Background(), EvalRequest{Workload: "IOR_16M", Config: params.DefaultConfig(eng.Registry()), Reps: 4, SeedBase: 99})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Mean <= 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.CI90 == 0 {
		t.Fatal("no run-to-run variance modelled")
	}
}

func TestCaseStudyTranscriptShape(t *testing.T) {
	eng := testEngine(t, nil)
	res, err := eng.Tune(context.Background(), "MDWorkbench_8K")
	if err != nil {
		t.Fatal(err)
	}
	transcript := ""
	for _, m := range res.Messages {
		transcript += m.Content
		for _, c := range m.ToolCalls {
			transcript += " " + c.Name
		}
	}
	for _, want := range []string{"analysis_request", "run_configuration", "end_tuning"} {
		if !strings.Contains(transcript, want) {
			t.Errorf("transcript lacks %s", want)
		}
	}
}
