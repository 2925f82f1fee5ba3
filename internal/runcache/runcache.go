// Package runcache memoizes measurement trials behind the platform
// abstraction. The evaluation drivers re-measure the exact same (workload,
// configuration, seed) triple dozens of times — default-config baselines
// alone recur per figure arm, per sweep point, and per repetition — and
// every one of those is a deterministic function of its content-addressed
// RunSpec key. The cache collapses them to one backend run apiece: a
// bounded LRU holds completed results, and a flight.Group singleflights
// concurrent requests for the same key so a parallel fan-out issues exactly
// one simulation per unique spec.
//
// The cache is sharded by key prefix: each shard owns its own mutex, LRU,
// and flight.Group, so the serving layer's parallel fan-out contends on
// 1/N of the lock traffic a single-mutex cache would see. Keys are hex
// SHA-256 digests — uniformly distributed — so shards stay balanced.
//
// A cache built with a persistence directory is additionally write-through
// to disk: every completed run is serialized as <key>.json in
// internal/platform's recording format, and a miss consults the directory
// before executing the backend. A restarted process over the same directory
// therefore warm-starts — identical requests are disk hits, not misses.
//
// Runs carrying a trace sink bypass the cache: their per-event side effects
// happen outside the measured result, so serving them from memory would
// silently drop the trace. With Options.Traces the directory keeps their
// event streams too, which makes it a record/replay run set: -platform
// record is such a cache over the simulator, and -platform replay the same
// cache over platform.NoRecording, so a spec the directory does not hold is
// an error.
package runcache

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"sync"

	"stellar/internal/flight"
	"stellar/internal/lustre"
	"stellar/internal/platform"
)

// DefaultCapacity bounds the cache when the caller passes capacity <= 0. A
// full figure regeneration touches a few thousand unique specs. An entry
// retains its key and result only (lustre.Run's Result shares no memory
// with the run): ~0.5 KiB of live heap per entry, measured by
// TestCachedResultsRetainOnlyThemselves, so a full cache holds ~2 MiB.
const DefaultCapacity = 4096

// DefaultShards is the shard count when Options.Shards <= 0: enough that 16
// concurrent requests rarely collide on one mutex, small enough that even a
// tiny capacity still gives each shard a useful LRU.
const DefaultShards = 16

// maxShards bounds the shard count to the 256 values of the first key byte,
// which is what the prefix-based shard pick can address.
const maxShards = 256

// Stats is a snapshot of cache effectiveness counters, aggregated across
// all shards.
type Stats struct {
	Hits      uint64 `json:"hits"`       // served from a shard's completed-run LRU
	Misses    uint64 `json:"misses"`     // executed on the backend
	Coalesced uint64 `json:"coalesced"`  // joined an in-flight backend run
	Bypassed  uint64 `json:"bypassed"`   // traced runs passed straight through
	Evictions uint64 `json:"evictions"`  // LRU entries dropped at capacity
	DiskHits  uint64 `json:"disk_hits"`  // misses satisfied from the persistence dir
	DiskErrs  uint64 `json:"disk_errs"`  // persistence reads/writes that failed (non-fatal)
	Entries   int    `json:"entries"`    // current resident results
	Capacity  int    `json:"capacity"`   // total capacity across shards
	Shards    int    `json:"shards"`     // shard count
	Persisted bool   `json:"persistent"` // write-through disk persistence enabled
}

// HitRate returns the fraction of cacheable lookups that avoided a backend
// run: memory hits, coalesced waiters, and disk hits over all lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced + s.DiskHits
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced+s.DiskHits) / float64(total)
}

// Delta returns the change in the monotonic counters since the `before`
// snapshot; the gauge fields (Entries, Capacity, Shards, Persisted) keep
// s's current values. It is how callers attribute cache activity to one
// bounded piece of work — a bench pass, a served job — out of a
// process-wide shared cache. A `before` taken from a different or restarted
// cache can carry counters larger than s's; each delta clamps at zero
// rather than wrapping uint64 into astronomically large values.
func (s Stats) Delta(before Stats) Stats {
	return Stats{
		Hits:      CounterDelta(s.Hits, before.Hits),
		Misses:    CounterDelta(s.Misses, before.Misses),
		Coalesced: CounterDelta(s.Coalesced, before.Coalesced),
		Bypassed:  CounterDelta(s.Bypassed, before.Bypassed),
		Evictions: CounterDelta(s.Evictions, before.Evictions),
		DiskHits:  CounterDelta(s.DiskHits, before.DiskHits),
		DiskErrs:  CounterDelta(s.DiskErrs, before.DiskErrs),
		Entries:   s.Entries,
		Capacity:  s.Capacity,
		Shards:    s.Shards,
		Persisted: s.Persisted,
	}
}

// CounterDelta is after - before for a monotonic counter, clamped at zero
// so a snapshot from a different or restarted process never wraps the
// uint64. Every Stats.Delta in the serving tier uses it.
func CounterDelta(after, before uint64) uint64 {
	if after < before {
		return 0
	}
	return after - before
}

func (s Stats) String() string {
	out := fmt.Sprintf("hits %d, coalesced %d, misses %d, disk hits %d, bypassed %d, evictions %d, resident %d/%d over %d shards (hit rate %.0f%%)",
		s.Hits, s.Coalesced, s.Misses, s.DiskHits, s.Bypassed, s.Evictions, s.Entries, s.Capacity, s.Shards, s.HitRate()*100)
	if s.DiskErrs > 0 {
		out += fmt.Sprintf(", %d disk errors", s.DiskErrs)
	}
	return out
}

type entry struct {
	key string
	res *platform.RunResult
}

// shard is one independently locked slice of the cache: its own LRU,
// flight group, and counters. A key maps to exactly one shard, so
// singleflight semantics are unchanged by sharding. sh.mu is never held
// across a flights call: an owner's run takes sh.mu to publish.
type shard struct {
	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are *entry
	items    map[string]*list.Element
	capacity int
	stats    Stats // Coalesced is read from flights, not kept here
	flights  flight.Group[*platform.RunResult]
}

// Options configures a cache beyond the New defaults.
type Options struct {
	// Capacity bounds completed results across all shards
	// (<= 0 = DefaultCapacity).
	Capacity int
	// Shards is the number of independently locked shards
	// (<= 0 = DefaultShards, capped at 256).
	Shards int
	// Dir, when non-empty, enables write-through disk persistence: completed
	// runs are serialized there as <key>.json (platform recording format)
	// and misses consult it before executing the backend.
	Dir string
	// Traces, with Dir, keeps traced runs in the directory too: a recording
	// with events is replayed into the run's sink, and any other traced run
	// executes with its events teed into its recording. Without it traced
	// runs bypass the cache and its directory.
	Traces bool
}

// Cache is a content-addressed, singleflight-deduplicated, sharded run
// cache. It implements platform.Platform, so it stacks over any backend
// (the simulator, replay's platform.NoRecording) and under any consumer
// (core.Engine, experiments, the HTTP serving layer). It is safe for
// concurrent use.
// Returned results are shared across callers and must be treated as
// immutable.
type Cache struct {
	inner  platform.Platform
	shards []*shard
	dir    string
	traces bool
}

// New wraps inner in a cache holding at most capacity completed results
// (DefaultCapacity if <= 0) across DefaultShards shards, with no disk
// persistence.
func New(inner platform.Platform, capacity int) *Cache {
	return NewWithOptions(inner, Options{Capacity: capacity})
}

// NewWithOptions wraps inner in a cache configured by opts.
func NewWithOptions(inner platform.Platform, opts Options) *Cache {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.Shards > maxShards {
		opts.Shards = maxShards
	}
	// A cache never holds more shards than entries, and the capacity is
	// distributed so the aggregate equals the requested bound exactly — a
	// `-cache-size 3` cache holds 3 results, not 3-rounded-up-per-shard.
	if opts.Shards > opts.Capacity {
		opts.Shards = opts.Capacity
	}
	c := &Cache{inner: inner, shards: make([]*shard, opts.Shards), dir: opts.Dir, traces: opts.Traces && opts.Dir != ""}
	per, extra := opts.Capacity/opts.Shards, opts.Capacity%opts.Shards
	for i := range c.shards {
		cap := per
		if i < extra {
			cap++
		}
		c.shards[i] = &shard{
			lru:      list.New(),
			items:    make(map[string]*list.Element),
			capacity: cap,
		}
	}
	return c
}

// Name implements platform.Platform.
func (c *Cache) Name() string { return "cache(" + c.inner.Name() + ")" }

// shardFor maps a key to its shard by prefix. Keys are hex SHA-256, so the
// first two hex digits reconstruct the digest's first byte — uniformly
// distributed across shards.
func (c *Cache) shardFor(key string) *shard {
	return c.shards[int(hexByte(key))%len(c.shards)]
}

// hexByte decodes the first two hex characters of a key. Keys always come
// from RunSpec.Key, so they are well-formed; anything else lands in a
// well-defined (if arbitrary) shard rather than panicking.
func hexByte(key string) byte {
	if len(key) < 2 {
		return 0
	}
	return hexNibble(key[0])<<4 | hexNibble(key[1])
}

func hexNibble(ch byte) byte {
	switch {
	case ch >= '0' && ch <= '9':
		return ch - '0'
	case ch >= 'a' && ch <= 'f':
		return ch - 'a' + 10
	case ch >= 'A' && ch <= 'F':
		return ch - 'A' + 10
	}
	return 0
}

// Stats returns a snapshot of the effectiveness counters aggregated across
// shards. Shards are snapshotted one at a time, so under concurrent load
// the aggregate is approximate by at most the operations in flight while it
// was taken — fine for monitoring, and exact once callers quiesce (which is
// what the counter-backed tests do).
func (c *Cache) Stats() Stats {
	var out Stats
	for _, sh := range c.shards {
		out.Coalesced += sh.flights.Joined()
		sh.mu.Lock()
		out.Hits += sh.stats.Hits
		out.Misses += sh.stats.Misses
		out.Bypassed += sh.stats.Bypassed
		out.Evictions += sh.stats.Evictions
		out.DiskHits += sh.stats.DiskHits
		out.DiskErrs += sh.stats.DiskErrs
		out.Entries += sh.lru.Len()
		out.Capacity += sh.capacity
		sh.mu.Unlock()
	}
	out.Shards = len(c.shards)
	out.Persisted = c.dir != ""
	return out
}

// Run implements platform.Platform. The first caller for a key executes the
// backend run; concurrent callers for the same key block until it completes
// and share its result; later callers hit the shard's LRU. With persistence
// enabled, the flight owner consults the disk before the backend, and a
// disk hit counts as DiskHits, not Misses. Errors are not cached — a failed
// run is retried by the next caller, and a coalesced waiter whose own
// context is still live retries when the flight's owner was cancelled (its
// cancellation must not poison unrelated callers sharing the cache).
// Traced runs count as Bypassed whether or not Options.Traces serves them.
func (c *Cache) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	if spec.Trace != nil {
		sh := c.shards[0]
		sh.mu.Lock()
		sh.stats.Bypassed++
		sh.mu.Unlock()
		if c.traces {
			return c.runTraced(ctx, spec)
		}
		return c.inner.Run(ctx, spec)
	}
	key := spec.Key()
	sh := c.shardFor(key)
	if res, ok := sh.lookup(key); ok {
		return res, nil
	}
	return sh.flights.Do(ctx, key, func() (*platform.RunResult, error) {
		// A flight that completed between the miss above and this one
		// starting has already published its result: serve it.
		if res, ok := sh.lookup(key); ok {
			return res, nil
		}
		res, fromDisk, err := c.load(ctx, spec, key)
		sh.mu.Lock()
		if err == nil {
			sh.insertLocked(key, res)
		}
		if fromDisk {
			sh.stats.DiskHits++
		} else {
			sh.stats.Misses++
		}
		sh.mu.Unlock()
		return res, err
	})
}

// lookup returns key's resident result, counting a hit and refreshing its
// LRU position.
func (sh *shard) lookup(key string) (*platform.RunResult, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	sh.stats.Hits++
	return el.Value.(*entry).res, true
}

// load resolves a cache miss: from the persistence directory when one is
// configured and holds the key, otherwise by executing the backend (writing
// the result through to disk on the way out). The disk I/O runs outside the
// shard mutex — only the owning flight performs it, so other keys on the
// shard proceed unblocked.
func (c *Cache) load(ctx context.Context, spec platform.RunSpec, key string) (res *platform.RunResult, fromDisk bool, err error) {
	var derr error
	if c.dir != "" {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		var rec *platform.Recording
		rec, derr = platform.ReadRecording(c.dir, key)
		switch {
		case derr == nil:
			out := rec.Result
			return &out, true, nil
		case !os.IsNotExist(derr):
			// Corrupt or unreadable: fall through to the backend, which
			// rewrites a clean recording, but count the anomaly.
			c.diskErr()
		}
	}
	res, err = c.inner.Run(ctx, spec)
	if err != nil {
		return nil, false, surface(err, derr)
	}
	if c.dir != "" {
		c.persist(key, spec, res, nil)
	}
	return res, false, nil
}

// runTraced serves a traced run under Options.Traces. Nothing is memoized
// or coalesced: every caller's sink must see the whole stream.
func (c *Cache) runTraced(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := spec.Key()
	rec, derr := platform.ReadRecording(c.dir, key)
	switch {
	case derr == nil && len(rec.Events) > 0:
		for _, ev := range rec.Events {
			spec.Trace.Record(ev)
		}
		out := rec.Result
		return &out, nil
	case derr == nil:
		derr = fmt.Errorf("runcache: recording %.12s was made without tracing but the run wants a sink; re-record with tracing", key)
	case !os.IsNotExist(derr):
		c.diskErr()
	}
	t := &tee{next: spec.Trace}
	spec.Trace = t
	res, err := c.inner.Run(ctx, spec)
	if err != nil {
		return nil, surface(err, derr)
	}
	c.persist(key, spec, res, t.events)
	return res, nil
}

// tee forwards a traced run's events to its sink while keeping a copy for
// the recording.
type tee struct {
	next   lustre.TraceSink
	events []lustre.Event
}

func (t *tee) Record(ev lustre.Event) {
	t.events = append(t.events, ev)
	t.next.Record(ev)
}

// surface adds why the directory could not serve a run to the backend's
// error, so a failed replay of a bad recording names the recording, not
// only the miss. A missing file adds nothing: the miss says it.
func surface(err, derr error) error {
	if derr == nil || os.IsNotExist(derr) {
		return err
	}
	return fmt.Errorf("%w (%v)", err, derr)
}

// persist writes a completed run through to the directory. Persistence is
// an accelerator, not a correctness dependency: a full disk must not fail
// measurements that already ran, so a failed write is only counted.
func (c *Cache) persist(key string, spec platform.RunSpec, res *platform.RunResult, events []lustre.Event) {
	rec := platform.Recording{Key: key, Workload: spec.Workload.Name, Seed: spec.Seed, Result: *res, Events: events}
	if err := platform.WriteRecording(c.dir, &rec); err != nil {
		c.diskErr()
	}
}

func (c *Cache) diskErr() {
	sh := c.shards[0]
	sh.mu.Lock()
	sh.stats.DiskErrs++
	sh.mu.Unlock()
}

func (sh *shard) insertLocked(key string, res *platform.RunResult) {
	if el, ok := sh.items[key]; ok {
		sh.lru.MoveToFront(el)
		el.Value.(*entry).res = res
		return
	}
	sh.items[key] = sh.lru.PushFront(&entry{key: key, res: res})
	for sh.lru.Len() > sh.capacity {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.items, oldest.Value.(*entry).key)
		sh.stats.Evictions++
	}
}
