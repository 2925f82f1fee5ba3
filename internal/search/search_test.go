package search

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/core"
	"stellar/internal/llm/simllm"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/stats"
)

// fakeEval is a deterministic synthetic evaluator: the wall time is a pure
// function of the configuration and the rep seed, so search behaviour can
// be pinned down without the simulator.
func fakeEval(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64) ([]float64, stats.Summary, error) {
	walls := make([]float64, reps)
	for i := range walls {
		w := 100.0
		for _, k := range cfg.Names() {
			w += float64(cfg[k]%97) * 0.01
		}
		walls[i] = w + float64((seedBase+int64(i)*101)%7)*0.001
	}
	return walls, stats.Summarize(walls), nil
}

func TestRunDeterministic(t *testing.T) {
	opts := Options{Workload: "IOR_16M", Candidates: 8, MinReps: 1, MaxReps: 4, Seed: 42}
	var logs [2]string
	var winners [2]string
	for i := 0; i < 2; i++ {
		var rounds []Round
		res, err := Run(context.Background(), fakeEval, opts, func(r Round) { rounds = append(rounds, r) })
		if err != nil {
			t.Fatal(err)
		}
		rj, _ := json.Marshal(rounds)
		wj, _ := json.Marshal(res.Winner)
		logs[i], winners[i] = string(rj), string(wj)
		if len(res.Rounds) != len(rounds) {
			t.Fatalf("onRound saw %d rounds, result has %d", len(rounds), len(res.Rounds))
		}
	}
	if logs[0] != logs[1] {
		t.Errorf("round logs differ:\n%s\n%s", logs[0], logs[1])
	}
	if winners[0] != winners[1] {
		t.Errorf("winners differ:\n%s\n%s", winners[0], winners[1])
	}
}

func TestRunHalvesBudget(t *testing.T) {
	opts := Options{Workload: "IOR_16M", Candidates: 8, Eta: 2, MinReps: 1, MaxReps: 8, Seed: 1}
	res, err := Run(context.Background(), fakeEval, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := opts.Candidates * opts.MaxReps
	if res.RepRuns >= exhaustive {
		t.Errorf("rep runs %d not below exhaustive %d", res.RepRuns, exhaustive)
	}
	if res.Winner.Reps != opts.MaxReps {
		t.Errorf("winner measured at %d reps, want %d", res.Winner.Reps, opts.MaxReps)
	}
	// Rounds shrink and precision grows monotonically.
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].Evaluated > res.Rounds[i-1].Evaluated {
			t.Errorf("round %d grew: %d -> %d candidates", i+1, res.Rounds[i-1].Evaluated, res.Rounds[i].Evaluated)
		}
		if res.Rounds[i].Reps < res.Rounds[i-1].Reps {
			t.Errorf("round %d reduced precision: %d -> %d reps", i+1, res.Rounds[i-1].Reps, res.Rounds[i].Reps)
		}
	}
	last := res.Rounds[len(res.Rounds)-1]
	if len(last.Survivors) != 1 || last.Survivors[0] != res.Winner.Index {
		t.Errorf("final survivors %v do not match winner %d", last.Survivors, res.Winner.Index)
	}
}

// TestHugeEtaTerminates: at an eta where ceil(alive/eta) and reps*eta
// overflow int, RoundsFor and Run must still return — one culling round,
// then the winner at full precision.
func TestHugeEtaTerminates(t *testing.T) {
	opts := Options{Workload: "IOR_16M", Candidates: 8, Eta: math.MaxInt64, MinReps: 2, MaxReps: 8, Seed: 1}
	type outcome struct {
		rounds int
		res    *Result
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		rounds := RoundsFor(opts)
		res, err := Run(context.Background(), fakeEval, opts, nil)
		done <- outcome{rounds, res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.rounds != 2 || len(o.res.Rounds) != 2 {
			t.Fatalf("RoundsFor = %d, Run ran %d rounds, want 2 and 2", o.rounds, len(o.res.Rounds))
		}
		if got := o.res.Rounds[0]; got.Evaluated != 8 || len(got.Survivors) != 1 || got.Reps != 2 {
			t.Fatalf("round 1 = %+v, want 8 candidates at 2 reps culled to 1", got)
		}
		if o.res.Winner.Reps != 8 {
			t.Fatalf("winner measured at %d reps, want 8", o.res.Winner.Reps)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RoundsFor or Run with eta = MaxInt64 did not return")
	}
}

// TestCullAndPromoteMatchTheCeiling: wherever (alive+eta-1)/eta and
// reps*eta fit in an int, the overflow-safe forms give exactly their values.
func TestCullAndPromoteMatchTheCeiling(t *testing.T) {
	for eta := 2; eta <= 17; eta++ {
		for n := 1; n <= 130; n++ {
			want := n
			if n > 1 {
				want = (n + eta - 1) / eta
			}
			if got := cull(n, eta); got != want {
				t.Fatalf("cull(%d, %d) = %d, want %d", n, eta, got, want)
			}
			for maxReps := n; maxReps <= n+70; maxReps += 7 {
				if got, want := promote(n, eta, maxReps), min(n*eta, maxReps); got != want {
					t.Fatalf("promote(%d, %d, %d) = %d, want %d", n, eta, maxReps, got, want)
				}
			}
		}
	}
}

func TestSampledCandidatesAreValid(t *testing.T) {
	opts := Options{Workload: "IOR_16M", Candidates: 32, Seed: 3}.WithDefaults()
	cands, err := samplePool(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 32 {
		t.Fatalf("pool size %d, want 32", len(cands))
	}
	defaults := params.DefaultConfig(opts.Registry)
	for _, n := range opts.Space {
		if cands[0][n] != defaults[n] {
			t.Errorf("candidate 0 %s = %d, want default %d", n, cands[0][n], defaults[n])
		}
	}
	for i, c := range cands {
		if len(c) != len(opts.Space) {
			t.Errorf("candidate %d covers %d params, want %d", i, len(c), len(opts.Space))
		}
		if err := params.Validate(c, opts.Registry, opts.Env); err != nil {
			t.Errorf("candidate %d invalid: %v", i, err)
		}
	}
}

func TestObjectives(t *testing.T) {
	walls := []float64{1, 2, 9}
	sum := stats.Summarize(walls)
	mean, _ := ObjectiveSpec{}.Build()
	if got := mean.Score(walls, sum); got != sum.Mean {
		t.Errorf("mean objective = %g, want %g", got, sum.Mean)
	}
	tail, _ := ObjectiveSpec{Kind: "tail"}.Build()
	if got := tail.Score(walls, sum); got != 9 {
		t.Errorf("tail objective = %g, want 9", got)
	}
	comp, err := ObjectiveSpec{Kind: "composite", MeanWeight: 1, TailWeight: 0.5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := sum.Mean + 0.5*9
	if got := comp.Score(walls, sum); got != want {
		t.Errorf("composite objective = %g, want %g", got, want)
	}
	if !strings.Contains(comp.Name(), "composite") {
		t.Errorf("composite name = %q", comp.Name())
	}
	if _, err := (ObjectiveSpec{Kind: "bogus"}).Build(); err == nil {
		t.Error("bogus kind accepted")
	}
	if _, err := (ObjectiveSpec{Kind: "composite"}).Build(); err == nil {
		t.Error("all-zero composite weights accepted")
	}
	if _, err := (ObjectiveSpec{Kind: "composite", MeanWeight: -1}).Build(); err == nil {
		t.Error("negative composite weight accepted")
	}
}

func TestRobustObjective(t *testing.T) {
	// Three variants' worth of series (clean + 2 faults), 2 reps each:
	// clean mean 2, fault means 5 and 8 — worst fault chunk dominates.
	walls := []float64{1, 3, 4, 6, 7, 9}
	sum := stats.Summarize(walls)
	obj, err := ObjectiveSpec{Kind: "robust", Perturbations: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := obj.Score(walls, sum), 0.5*2+0.5*8; got != want {
		t.Errorf("robust score = %g, want %g", got, want)
	}
	if !strings.Contains(obj.Name(), "robust") || !strings.Contains(obj.Name(), "2 variants") {
		t.Errorf("robust name = %q", obj.Name())
	}
	weighted, err := ObjectiveSpec{Kind: "robust", Perturbations: 2, CleanWeight: 1, FaultWeight: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := weighted.Score(walls, sum), 1*2.0+3*8.0; got != want {
		t.Errorf("weighted robust score = %g, want %g", got, want)
	}
	// A series that is not variants+1 equal chunks degrades to the mean.
	odd := []float64{1, 2, 3, 4, 5}
	if got := obj.Score(odd, stats.Summarize(odd)); got != 3 {
		t.Errorf("non-chunked robust score = %g, want mean 3", got)
	}
	if _, err := (ObjectiveSpec{Kind: "robust"}).Build(); err == nil {
		t.Error("robust objective without variants accepted")
	}
	if _, err := (ObjectiveSpec{Kind: "robust", Perturbations: 1, CleanWeight: -1}).Build(); err == nil {
		t.Error("negative robust weight accepted")
	}
}

// TestPerturbedEvalRobustSearch runs a whole search on a PerturbedEval
// whose variants punish configurations differently: one parameter helps the
// clean run but collapses under the fault variants, so the robust winner
// must differ from the plain-mean winner over the identical pool.
func TestPerturbedEvalRobustSearch(t *testing.T) {
	const variants = 2
	variantEval := func(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64, v int) ([]float64, error) {
		walls := make([]float64, reps)
		rpcs := cfg["osc.max_rpcs_in_flight"]
		for i := range walls {
			w := 100.0 - float64(rpcs%97)*0.2 // more RPCs = faster when healthy
			if v > 0 {
				// Under faults, high RPC concurrency amplifies retry storms.
				w = 100.0 + float64(rpcs%97)*0.5 + float64(v)
			}
			walls[i] = w + float64((seedBase+int64(i)*101)%7)*0.001
		}
		return walls, nil
	}
	eval := PerturbedEval(variants, variantEval)

	walls, sum, err := eval(context.Background(), "IOR_16M", params.Config{"osc.max_rpcs_in_flight": 8}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(walls) != (variants+1)*2 {
		t.Fatalf("concatenated series has %d walls, want %d", len(walls), (variants+1)*2)
	}
	if sum.Mean <= 0 {
		t.Fatal("summary not computed over the concatenated series")
	}

	obj, err := ObjectiveSpec{Kind: "robust", Perturbations: variants}.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Workload: "IOR_16M", Candidates: 8, MinReps: 1, MaxReps: 4, Seed: 42,
		Space: []string{"osc.max_rpcs_in_flight"}}

	robustOpts := base
	robustOpts.Objective = obj
	robust, err := Run(context.Background(), eval, robustOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The robust winner minimizes the faulted worst case: it must carry a
	// lower RPC setting than the pool's clean-run optimum (the maximum).
	var maxRPC int64
	pool0, err := samplePool(robustOpts.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pool0 {
		if v := c["osc.max_rpcs_in_flight"] % 97; v > maxRPC {
			maxRPC = v
		}
	}
	if got := robust.Winner.Config["osc.max_rpcs_in_flight"] % 97; got == maxRPC {
		t.Errorf("robust winner picked the clean-optimal rpc setting %d — fault variants ignored", got)
	}

	// Determinism: the identical robust search reproduces its round log.
	again, err := Run(context.Background(), eval, robustOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(robust)
	j2, _ := json.Marshal(again)
	if string(j1) != string(j2) {
		t.Errorf("robust search not deterministic:\n%s\n%s", j1, j2)
	}

	// A variant eval returning the wrong rep count is surfaced, not sliced.
	bad := PerturbedEval(1, func(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64, v int) ([]float64, error) {
		return []float64{1}, nil
	})
	if _, _, err := bad(context.Background(), "IOR_16M", params.Config{}, 2, 1); err == nil {
		t.Error("short variant series accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), fakeEval, Options{}, nil); err == nil {
		t.Error("missing workload accepted")
	}
	if _, err := Run(context.Background(), fakeEval, Options{Workload: "IOR_16M", Candidates: 1}, nil); err == nil {
		t.Error("single-candidate search accepted")
	}
	if _, err := Run(context.Background(), fakeEval, Options{Workload: "IOR_16M", Space: []string{"nope"}}, nil); err == nil {
		t.Error("unknown space parameter accepted")
	}
	if _, err := Run(context.Background(), fakeEval, Options{Workload: "IOR_16M", Space: []string{"llite.kbytestotal"}}, nil); err == nil {
		t.Error("read-only space parameter accepted")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	eval := func(ctx context.Context, wl string, cfg params.Config, reps int, seed int64) ([]float64, stats.Summary, error) {
		calls++
		if calls == 3 {
			cancel()
		}
		if err := ctx.Err(); err != nil {
			return nil, stats.Summary{}, err
		}
		return fakeEval(ctx, wl, cfg, reps, seed)
	}
	if _, err := Run(ctx, eval, Options{Workload: "IOR_16M", Candidates: 8, Seed: 1}, nil); err == nil {
		t.Fatal("cancelled search returned no error")
	}
}

// TestSearchThroughSharedCache is the tentpole integration contract: a
// search over the real engine + run cache issues strictly fewer simulator
// runs than exhaustively evaluating its candidate pool at full precision,
// and a repeat of the identical search over the same cache is entirely
// free (zero new misses) with the identical winner and round log.
func TestSearchThroughSharedCache(t *testing.T) {
	cache := runcache.New(platform.Simulator{}, 0)
	eng := core.New(simllm.New(simllm.GPT4o), core.Options{
		Spec:     cluster.Default(),
		Scale:    0.05,
		Seed:     7,
		Platform: cache,
	})
	opts := Options{
		Workload: "IOR_16M", Candidates: 6, Eta: 2,
		MinReps: 1, MaxReps: 4, Seed: 19,
	}

	run := func() (*Result, string) {
		eval := func(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64) ([]float64, stats.Summary, error) {
			return eng.Evaluate(ctx, core.EvalRequest{Workload: wl, Config: cfg, Reps: reps, SeedBase: seedBase})
		}
		res, err := Run(pool.WithBudget(context.Background(), pool.NewBudget(4)), eval, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := json.Marshal(res)
		return res, string(j)
	}

	res1, log1 := run()
	after1 := cache.Stats()
	exhaustive := uint64(opts.Candidates * opts.MaxReps)
	if after1.Misses >= exhaustive {
		t.Errorf("search cost %d simulator runs, exhaustive pool evaluation costs %d — halving saved nothing",
			after1.Misses, exhaustive)
	}
	if after1.Misses == 0 {
		t.Error("search issued no simulator runs at all")
	}

	res2, log2 := run()
	delta := cache.Stats().Delta(after1)
	if delta.Misses != 0 {
		t.Errorf("repeated identical search missed the cache %d times, want 0", delta.Misses)
	}
	if log1 != log2 {
		t.Errorf("repeated search diverged:\n%s\n%s", log1, log2)
	}
	w1, _ := json.Marshal(res1.Winner.Config)
	w2, _ := json.Marshal(res2.Winner.Config)
	if string(w1) != string(w2) {
		t.Errorf("winners differ: %s vs %s", w1, w2)
	}
	if res1.Speedup() <= 0 {
		t.Errorf("speedup = %g, want > 0", res1.Speedup())
	}
	if fmt.Sprint(res1.Winner.Config) == "" {
		t.Error("empty winner config")
	}
}
