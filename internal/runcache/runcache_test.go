package runcache

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/core"
	"stellar/internal/llm/simllm"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/workload"
)

func testRunSpec(t *testing.T, seed int64) platform.RunSpec {
	t.Helper()
	spec := cluster.Default()
	spec.ClientNodes, spec.ProcsPerNode, spec.OSTCount = 2, 2, 3
	w, err := workload.Catalog("IOR_16M", spec.TotalRanks(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return platform.RunSpec{
		Spec: spec, Workload: w,
		Config: params.DefaultConfig(params.Lustre()), Seed: seed,
	}
}

// countingBackend counts Run calls per key and optionally delays each run to
// widen singleflight race windows.
type countingBackend struct {
	inner platform.Platform
	delay time.Duration

	mu    sync.Mutex
	calls map[string]int
}

func newCountingBackend(delay time.Duration) *countingBackend {
	return &countingBackend{inner: platform.Simulator{}, delay: delay, calls: map[string]int{}}
}

func (c *countingBackend) Name() string { return "count(" + c.inner.Name() + ")" }

func (c *countingBackend) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	key := spec.Key()
	c.mu.Lock()
	c.calls[key]++
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.inner.Run(ctx, spec)
}

func (c *countingBackend) callsFor(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[key]
}

func (c *countingBackend) totalCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

func TestCacheServesRepeatsFromMemory(t *testing.T) {
	backend := newCountingBackend(0)
	cache := New(backend, 0)
	spec := testRunSpec(t, 1)

	first, err := cache.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cache.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cache hit returned a different result")
	}
	if got := backend.callsFor(spec.Key()); got != 1 {
		t.Fatalf("backend ran %d times, want 1", got)
	}
	s := cache.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestEvaluateBitIdentityCachedVsUncached is the correctness contract for
// threading the cache under core.Engine: the summary an engine computes over
// a cached platform must be bit-identical to an uncached engine's, both on
// the first (all-miss) and a repeated (all-hit) Evaluate.
func TestEvaluateBitIdentityCachedVsUncached(t *testing.T) {
	mk := func(p platform.Platform) *core.Engine {
		return core.New(simllm.New(simllm.GPT4o), core.Options{
			Spec: cluster.Default(), TuningModel: simllm.Claude37,
			AnalysisModel: simllm.GPT4o, ExtractModel: simllm.GPT4o,
			Scale: 0.05, Seed: 3, Platform: p,
		})
	}
	uncached := mk(nil)
	cache := New(platform.Simulator{}, 0)
	cached := mk(cache)

	req := core.EvalRequest{Workload: "IOR_16M", Config: params.DefaultConfig(params.Lustre()), Reps: 4, SeedBase: 99}
	ctx := context.Background()
	_, want, err := uncached.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, miss, err := cached.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, hit, err := cached.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, miss) {
		t.Fatalf("first cached Evaluate diverged: %+v vs %+v", want, miss)
	}
	if !reflect.DeepEqual(want, hit) {
		t.Fatalf("repeated cached Evaluate diverged: %+v vs %+v", want, hit)
	}
	s := cache.Stats()
	if s.Misses != 4 || s.Hits != 4 {
		t.Fatalf("want 4 misses + 4 hits across the two Evaluates, got %+v", s)
	}
}

// TestSingleflightUnderConcurrency spins many goroutines at the same spec
// through one cache (run under -race in CI): exactly one backend run may
// happen, everyone shares its result.
func TestSingleflightUnderConcurrency(t *testing.T) {
	backend := newCountingBackend(20 * time.Millisecond)
	cache := New(backend, 0)
	spec := testRunSpec(t, 2)

	const goroutines = 16
	results := make([]*platform.RunResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cache.Run(context.Background(), spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatal("goroutines got different result pointers for one spec")
		}
	}
	if got := backend.callsFor(spec.Key()); got != 1 {
		t.Fatalf("backend ran %d times under concurrency, want 1", got)
	}
	s := cache.Stats()
	if s.Misses != 1 || s.Hits+s.Coalesced != goroutines-1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestConcurrentDistinctSpecs exercises the cache's locking with a mixed
// concurrent load of repeated and distinct specs (for -race).
func TestConcurrentDistinctSpecs(t *testing.T) {
	backend := newCountingBackend(0)
	cache := New(backend, 0)
	const seeds = 4
	const callers = 12
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := testRunSpec(t, int64(i%seeds))
			if _, err := cache.Run(context.Background(), spec); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := backend.totalCalls(); got != seeds {
		t.Fatalf("backend ran %d times for %d unique specs", got, seeds)
	}
}

func TestLRUEvictionBounds(t *testing.T) {
	backend := newCountingBackend(0)
	// One shard so LRU order is global and the eviction victim is exactly
	// the least recently used key; the sharded analogue (per-shard bounds,
	// aggregate capacity) is pinned by TestShardedCapacityBounds.
	cache := NewWithOptions(backend, Options{Capacity: 2, Shards: 1})
	ctx := context.Background()

	for seed := int64(0); seed < 3; seed++ {
		if _, err := cache.Run(ctx, testRunSpec(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	s := cache.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats after overflow = %+v", s)
	}
	// Seed 0 was evicted (least recently used): re-running it must miss.
	if _, err := cache.Run(ctx, testRunSpec(t, 0)); err != nil {
		t.Fatal(err)
	}
	if got := backend.callsFor(testRunSpec(t, 0).Key()); got != 2 {
		t.Fatalf("evicted entry re-ran %d times, want 2", got)
	}
	// Seed 2 stayed resident.
	if _, err := cache.Run(ctx, testRunSpec(t, 2)); err != nil {
		t.Fatal(err)
	}
	if got := backend.callsFor(testRunSpec(t, 2).Key()); got != 1 {
		t.Fatalf("resident entry re-ran: %d calls", got)
	}
	if s := cache.Stats(); s.Entries > 2 {
		t.Fatalf("capacity exceeded: %+v", s)
	}
}

// TestTracedRunsBypassTheCache: without Options.Traces a traced run goes
// straight to the backend every time, and a persistence directory gets no
// file for it.
func TestTracedRunsBypassTheCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  bool
	}{
		{"memory", false},
		{"dir", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := newCountingBackend(0)
			var opts Options
			if tc.dir {
				opts.Dir = t.TempDir()
			}
			cache := NewWithOptions(backend, opts)
			spec := testRunSpec(t, 9)
			spec.Trace = &captureSink{}
			ctx := context.Background()
			for i := 0; i < 2; i++ {
				if _, err := cache.Run(ctx, spec); err != nil {
					t.Fatal(err)
				}
			}
			if got := backend.callsFor(spec.Key()); got != 2 {
				t.Fatalf("traced runs were cached: %d backend calls, want 2", got)
			}
			s := cache.Stats()
			if s.Bypassed != 2 || s.Misses != 0 || s.Entries != 0 {
				t.Fatalf("stats = %+v", s)
			}
			if tc.dir {
				if files, err := os.ReadDir(opts.Dir); err != nil || len(files) != 0 {
					t.Fatalf("traced runs wrote %d files to the persistence dir (err %v)", len(files), err)
				}
			}
		})
	}
}

// TestShardedCapacityBounds: across many distinct specs the aggregate
// resident count never exceeds the requested capacity, shard capacities sum
// exactly to it, and every spec still round-trips correctly.
func TestShardedCapacityBounds(t *testing.T) {
	backend := newCountingBackend(0)
	const capacity = 6
	cache := NewWithOptions(backend, Options{Capacity: capacity, Shards: 4})
	ctx := context.Background()

	for seed := int64(0); seed < 20; seed++ {
		if _, err := cache.Run(ctx, testRunSpec(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	s := cache.Stats()
	if s.Capacity != capacity {
		t.Fatalf("aggregate capacity = %d, want %d", s.Capacity, capacity)
	}
	if s.Shards != 4 {
		t.Fatalf("shards = %d, want 4", s.Shards)
	}
	if s.Entries > capacity {
		t.Fatalf("resident %d exceeds capacity %d", s.Entries, capacity)
	}
	if s.Misses != 20 {
		t.Fatalf("misses = %d, want 20 distinct specs", s.Misses)
	}
	if s.Evictions == 0 {
		t.Fatal("20 specs through capacity 6 evicted nothing")
	}
}

// TestShardedSingleflight re-proves the core dedup contract on a multi-shard
// cache: one key maps to one shard, so sharding must not change singleflight
// semantics.
func TestShardedSingleflight(t *testing.T) {
	backend := newCountingBackend(10 * time.Millisecond)
	cache := NewWithOptions(backend, Options{Shards: 32})
	spec := testRunSpec(t, 21)

	const goroutines = 16
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cache.Run(context.Background(), spec); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := backend.callsFor(spec.Key()); got != 1 {
		t.Fatalf("backend ran %d times under concurrency, want 1", got)
	}
	if s := cache.Stats(); s.Misses != 1 || s.Hits+s.Coalesced != goroutines-1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestShardDistribution: distinct specs spread over more than one shard —
// the point of sharding — rather than all hashing to shard zero.
func TestShardDistribution(t *testing.T) {
	cache := NewWithOptions(newCountingBackend(0), Options{Shards: 4})
	used := map[int]bool{}
	for seed := int64(0); seed < 12; seed++ {
		key := testRunSpec(t, seed).Key()
		used[int(hexByte(key))%len(cache.shards)] = true
	}
	if len(used) < 2 {
		t.Fatalf("12 distinct keys all landed in one shard of 4: %v", used)
	}
}

// TestPersistenceWarmStart is the restart contract: a second cache over the
// same directory — a fresh process in miniature — serves the identical
// request set from disk with zero misses and identical results.
func TestPersistenceWarmStart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	first := newCountingBackend(0)
	warm := NewWithOptions(first, Options{Dir: dir})
	want := make([]*platform.RunResult, 3)
	for seed := int64(0); seed < 3; seed++ {
		res, err := warm.Run(ctx, testRunSpec(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res
	}
	if s := warm.Stats(); s.Misses != 3 || !s.Persisted {
		t.Fatalf("first-life stats = %+v", s)
	}

	// "Restart": a brand-new cache and backend over the same directory.
	second := newCountingBackend(0)
	cold := NewWithOptions(second, Options{Dir: dir})
	for seed := int64(0); seed < 3; seed++ {
		res, err := cold.Run(ctx, testRunSpec(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Result, want[seed].Result) || res.WallTime != want[seed].WallTime {
			t.Fatalf("seed %d: disk round trip changed the result", seed)
		}
	}
	s := cold.Stats()
	if s.Misses != 0 {
		t.Fatalf("restarted cache re-simulated: %d misses (stats %s)", s.Misses, s)
	}
	if s.DiskHits != 3 {
		t.Fatalf("disk hits = %d, want 3 (stats %s)", s.DiskHits, s)
	}
	if got := second.totalCalls(); got != 0 {
		t.Fatalf("backend ran %d times after warm start, want 0", got)
	}
	// Once loaded, repeats are memory hits, not repeated disk reads.
	if _, err := cold.Run(ctx, testRunSpec(t, 0)); err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Hits != 1 {
		t.Fatalf("repeat after warm start: hits = %d, want 1", s.Hits)
	}
}

// TestPersistenceSurvivesCorruptRecording: a torn or garbage <key>.json must
// fall back to the backend (re-measuring and rewriting), never fail the run.
func TestPersistenceSurvivesCorruptRecording(t *testing.T) {
	ctx := context.Background()
	spec := testRunSpec(t, 5)
	// A well-formed recording of another spec, filed under spec's key.
	other := testRunSpec(t, 6)
	res, err := platform.Simulator{}.Run(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	mislabelled, err := json.Marshal(platform.Recording{Key: other.Key(), Workload: other.Workload.Name, Seed: other.Seed, Result: *res})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"torn", []byte("{torn")},
		{"mislabelled", mislabelled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, spec.Key()+".json"), tc.body, 0o644); err != nil {
				t.Fatal(err)
			}
			backend := newCountingBackend(0)
			cache := NewWithOptions(backend, Options{Dir: dir})
			got, err := cache.Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got.WallTime == res.WallTime {
				t.Fatal("served the mislabelled recording's result")
			}
			if got := backend.callsFor(spec.Key()); got != 1 {
				t.Fatalf("backend ran %d times for a bad recording, want 1", got)
			}
			s := cache.Stats()
			if s.DiskErrs == 0 {
				t.Fatalf("bad recording not counted: %+v", s)
			}
			// The rewrite repaired the file: a fresh cache now warm-starts from it.
			fresh := NewWithOptions(newCountingBackend(0), Options{Dir: dir})
			if _, err := fresh.Run(ctx, spec); err != nil {
				t.Fatal(err)
			}
			if s := fresh.Stats(); s.DiskHits != 1 || s.Misses != 0 {
				t.Fatalf("repaired recording did not warm-start: %+v", s)
			}
		})
	}
}

// TestPersistenceRepairsNonCanonicalRecording: a recording that holds the
// right value in another layout than WriteRecording's (reformatted, or with
// a trailing newline) is corrupt to the reader, so the cache counts a disk
// error, re-simulates, and rewrites the file in the canonical layout.
func TestPersistenceRepairsNonCanonicalRecording(t *testing.T) {
	ctx := context.Background()
	spec := testRunSpec(t, 5)
	res, err := platform.Simulator{}.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := platform.Recording{Key: spec.Key(), Workload: spec.Workload.Name, Seed: spec.Seed, Result: *res}
	canonical, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"reformatted", indented},
		{"trailing newline", append(append([]byte(nil), canonical...), '\n')},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, spec.Key()+".json")
			if err := os.WriteFile(path, tc.body, 0o644); err != nil {
				t.Fatal(err)
			}
			backend := newCountingBackend(0)
			cache := NewWithOptions(backend, Options{Dir: dir})
			if _, err := cache.Run(ctx, spec); err != nil {
				t.Fatal(err)
			}
			if got := backend.callsFor(spec.Key()); got != 1 {
				t.Fatalf("backend ran %d times for a non-canonical recording, want 1", got)
			}
			if s := cache.Stats(); s.DiskErrs != 1 || s.DiskHits != 0 {
				t.Fatalf("non-canonical recording not counted as a disk error: %+v", s)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, canonical) {
				t.Fatalf("file not rewritten in the canonical layout:\n%s", got)
			}
		})
	}
}

// TestDeltaClampsAcrossCacheLifetimes: a `before` snapshot from a bigger
// (different or pre-restart) cache must clamp to zero, not wrap uint64.
func TestDeltaClampsAcrossCacheLifetimes(t *testing.T) {
	before := Stats{Hits: 100, Misses: 50, Coalesced: 9, Bypassed: 3, Evictions: 7, DiskHits: 2}
	now := Stats{Hits: 4, Misses: 60, Entries: 4, Capacity: 64, Shards: 2}
	d := now.Delta(before)
	if d.Hits != 0 || d.Coalesced != 0 || d.Bypassed != 0 || d.Evictions != 0 || d.DiskHits != 0 {
		t.Fatalf("underflowing deltas not clamped: %+v", d)
	}
	if d.Misses != 10 {
		t.Fatalf("Misses delta = %d, want 10", d.Misses)
	}
	if d.Entries != 4 || d.Capacity != 64 || d.Shards != 2 {
		t.Fatalf("gauges not preserved: %+v", d)
	}
}

// blockingBackend parks every Run until released, so a test can pin a
// flight in the in-flight table while other callers coalesce on it.
type blockingBackend struct {
	inner   platform.Platform
	started chan struct{}
	release chan struct{}
}

func (b *blockingBackend) Name() string { return "blocking" }

func (b *blockingBackend) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
		return b.inner.Run(context.Background(), spec)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestCoalescedWaiterSurvivesOwnersCancellation: a waiter whose own context
// is live must not inherit the flight owner's cancellation error — it
// retries and runs the trial itself.
func TestCoalescedWaiterSurvivesOwnersCancellation(t *testing.T) {
	backend := &blockingBackend{
		inner:   platform.Simulator{},
		started: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	cache := New(backend, 0)
	spec := testRunSpec(t, 11)

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := cache.Run(ownerCtx, spec)
		ownerErr <- err
	}()
	<-backend.started // owner's flight is in the table

	waiterRes := make(chan *platform.RunResult, 1)
	waiterErr := make(chan error, 1)
	go func() {
		res, err := cache.Run(context.Background(), spec)
		waiterRes <- res
		waiterErr <- err
	}()
	// Give the waiter time to coalesce on the owner's flight, then cancel
	// only the owner.
	for cache.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancelOwner()
	if err := <-ownerErr; err != context.Canceled {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	// The waiter retries: it becomes the new flight owner and blocks on the
	// backend again; release it.
	<-backend.started
	close(backend.release)
	if err := <-waiterErr; err != nil {
		t.Fatalf("live waiter inherited the owner's cancellation: %v", err)
	}
	if res := <-waiterRes; res == nil {
		t.Fatal("waiter got no result")
	}
}

// panicOnceBackend panics on its first Run and simulates normally after.
type panicOnceBackend struct {
	inner    platform.Platform
	panicked bool
	runs     int
}

func (b *panicOnceBackend) Name() string { return "panic-once" }

func (b *panicOnceBackend) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	b.runs++
	if !b.panicked {
		b.panicked = true
		panic("backend exploded")
	}
	return b.inner.Run(ctx, spec)
}

// TestPanickingRunDoesNotStrandTheKey: a backend panic reaches the caller
// (the server recovers it into a 500), and the key's flight is released on
// the way out, so the next Run for the same spec simulates and returns
// instead of waiting out its deadline on a flight that never closes.
func TestPanickingRunDoesNotStrandTheKey(t *testing.T) {
	backend := &panicOnceBackend{inner: platform.Simulator{}}
	cache := New(backend, 0)
	spec := testRunSpec(t, 13)

	func() {
		defer func() {
			if r := recover(); r != "backend exploded" {
				t.Fatalf("first Run: recovered %v, want the backend's panic", r)
			}
		}()
		cache.Run(context.Background(), spec)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := cache.Run(ctx, spec)
	if err != nil {
		t.Fatalf("second Run after a recovered panic: %v", err)
	}
	if res == nil || res.WallTime <= 0 {
		t.Fatalf("second Run returned no measurement: %+v", res)
	}
	if backend.runs != 2 {
		t.Fatalf("backend ran %d times, want 2 (the panic, then a re-simulation)", backend.runs)
	}
	if st := cache.Stats(); st.Coalesced != 0 || st.Misses != 1 {
		t.Fatalf("stats %+v: want the second Run counted as a miss, not coalesced", st)
	}
}
