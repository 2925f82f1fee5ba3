package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/llm"
	"stellar/internal/params"
	"stellar/internal/pool"
)

// TestEvaluateParallelMatchesSerial is the determinism contract of the
// concurrent execution layer: fanning the repetitions out under a budget
// must produce a summary bit-identical to the strict serial protocol,
// because per-rep seeds are fixed by index.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	cfg := params.DefaultConfig(params.Lustre())
	serialEng := testEngine(t, nil)
	req := EvalRequest{Workload: "IOR_16M", Config: cfg, Reps: 8, SeedBase: 42}
	_, serial, err := serialEng.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		parEng := testEngine(t, nil)
		_, par, err := parEng.Evaluate(pool.WithBudget(context.Background(), pool.NewBudget(workers)), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("parallel(%d) summary diverged from serial:\n  serial   %+v\n  parallel %+v",
				workers, serial, par)
		}
	}
}

// blockingClient parks every completion until its context is cancelled,
// standing in for a slow real inference endpoint.
type blockingClient struct{}

func (blockingClient) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestTuneCancellationReturnsPromptly cancels a tuning run stuck on a model
// call and requires it to unwind with ctx.Err() well before any timeout.
func TestTuneCancellationReturnsPromptly(t *testing.T) {
	eng := New(blockingClient{}, Options{
		Spec:        cluster.Default(),
		TuningModel: "m", AnalysisModel: "m", ExtractModel: "m",
		Scale: 0.05, Seed: 3,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.Tune(ctx, "IOR_16M")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the run park inside a model call
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Tune did not return promptly after cancellation")
	}
}

// TestEvaluateCancellation checks the pool path too: a cancelled context
// aborts the repetitions instead of running them all.
func TestEvaluateCancellation(t *testing.T) {
	eng := testEngine(t, nil)
	ctx, cancel := context.WithCancel(pool.WithBudget(context.Background(), pool.NewBudget(2)))
	cancel()
	_, _, err := eng.Evaluate(ctx, EvalRequest{Workload: "IOR_16M", Config: params.DefaultConfig(eng.Registry()), Reps: 8, SeedBase: 42})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConcurrentTuneAndReaders exercises one engine serving parallel tuning
// runs while another goroutine reads the published rule set — the scenario
// the per-run state split, the meter mutex, and the copy-on-write rule
// publication exist for. Run under -race this is the safety proof.
func TestConcurrentTuneAndReaders(t *testing.T) {
	eng := testEngine(t, nil)
	// Warm the offline extraction once so the concurrent runs share it.
	if _, err := eng.Offline(context.Background()); err != nil {
		t.Fatal(err)
	}
	names := []string{"IOR_16M", "IOR_64K", "MDWorkbench_8K", "MDWorkbench_2K"}
	errs := make([]error, len(names))
	var tuners sync.WaitGroup
	for i, name := range names {
		tuners.Add(1)
		go func(i int, name string) {
			defer tuners.Done()
			res, err := eng.Tune(context.Background(), name)
			if err == nil && len(res.History) == 0 {
				err = errors.New("empty history")
			}
			errs[i] = err
		}(i, name)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = eng.Rules().JSON() // must never observe a half-merged set
			}
		}
	}()
	tuners.Wait()
	close(stop)
	reader.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent tune of %s failed: %v", names[i], err)
		}
	}
	if eng.Rules().Empty() {
		t.Fatal("no rules published after concurrent tuning runs")
	}
}
