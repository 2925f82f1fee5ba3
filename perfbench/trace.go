package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"stellar/internal/llm"
	"stellar/internal/platform"
)

// timedPlatform is a platform.Platform decorator that counts and times the
// runs passing through it. The benchmark stacks one above and one below a
// runcache.Cache to split cache work from simulation.
type timedPlatform struct {
	inner platform.Platform

	mu     sync.Mutex
	runs   int
	busy   time.Duration
	traced int           // runs carrying a trace sink (they bypass the cache)
	tbusy  time.Duration // time spent in those runs
	last   platform.RunSpec
}

func (t *timedPlatform) Name() string { return t.inner.Name() }

func (t *timedPlatform) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	start := time.Now()
	res, err := t.inner.Run(ctx, spec)
	d := time.Since(start)
	t.mu.Lock()
	t.runs++
	t.busy += d
	if spec.Trace != nil {
		t.traced++
		t.tbusy += d
	} else {
		t.last = spec
	}
	t.mu.Unlock()
	return res, err
}

// snapshot returns the counters so far.
func (t *timedPlatform) snapshot() (runs int, busy time.Duration, traced int, tbusy time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.runs, t.busy, t.traced, t.tbusy
}

// timedLLM is an llm.Client decorator that counts calls, their time, and
// their tokens as llm.RequestTokens and llm.ResponseTokens estimate them.
type timedLLM struct {
	inner llm.Client

	mu     sync.Mutex
	calls  int
	tokens int
	busy   time.Duration
}

func (t *timedLLM) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	start := time.Now()
	resp, err := t.inner.Complete(ctx, req)
	d := time.Since(start)
	tokens := llm.RequestTokens(req)
	if err == nil {
		tokens += llm.ResponseTokens(&resp.Message)
	}
	t.mu.Lock()
	t.calls++
	t.tokens += tokens
	t.busy += d
	t.mu.Unlock()
	return resp, err
}

func (t *timedLLM) snapshot() (calls, tokens int, busy time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls, t.tokens, t.busy
}

// procMeter reads the process-wide counters a phase is charged with.
type procMeter struct {
	cpu     time.Duration // user + system CPU
	gcCPU   float64       // runtime estimate of GC CPU seconds
	mallocs uint64
}

func readProc(withAllocs bool) procMeter {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	m := procMeter{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[0].Value.Float64()
	}
	if withAllocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.mallocs = ms.Mallocs
	}
	return m
}

// liveHeapMB forces collections and returns the live heap in MiB. The
// second collection empties the sync.Pool victim caches the first one
// leaves, so pooled scratch does not count as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// setupTimes records each set-up of a run: how long it took and the live
// heap it left.
type setupTimes struct {
	secs, heaps []float64
}

func (s *setupTimes) add(took time.Duration) {
	s.secs = append(s.secs, took.Seconds())
	s.heaps = append(s.heaps, liveHeapMB())
}
