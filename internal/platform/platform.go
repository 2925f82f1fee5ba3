// Package platform decouples the STELLAR engine from the concrete
// measurement substrate. A Platform is a swappable oracle that executes one
// (cluster, workload, configuration, seed) trial and reports the measured
// result — exactly how the paper's evaluation protocol treats the Lustre
// deployment. The default backend wraps the discrete-event Lustre
// simulator; recordings of its results (and trace events) on disk let a run
// cache (internal/runcache) replay them for deterministic, cluster-free
// regression runs; future adapters can drive a real cluster behind the same
// interface.
//
// Every RunSpec has a stable content-addressed Key derived from the full
// cluster spec, the workload's complete op streams, the configuration, and
// the seed. Two specs with equal keys describe byte-identical trials, which
// is what makes run caching (internal/runcache) and replay sound.
package platform

import (
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"stellar/internal/cluster"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/workload"
)

// RunSpec fully describes one measurement trial. Trace is an optional
// observer of per-operation events; it is deliberately excluded from Key
// because it does not influence the measured result.
type RunSpec struct {
	Spec     cluster.Spec
	Workload *workload.Workload
	Config   params.Config
	Seed     int64
	Faults   lustre.FaultPlan
	Trace    lustre.TraceSink

	// base, set only by WithKeyBase, is the key's hashed seed-independent
	// part; nil keys in full.
	base *keyBase
}

// RunResult is one measured trial as reported by a Platform. Clamped lists
// parameters whose proposed values were out of range and silently pulled
// back before the run — surfacing them lets callers warn instead of
// measuring a different configuration than the one proposed.
type RunResult struct {
	WallTime float64        `json:"wall_time_s"`
	Clamped  []string       `json:"clamped,omitempty"`
	Result   *lustre.Result `json:"result"`
}

// Platform executes measurement trials. Implementations must be safe for
// concurrent use and must treat the returned RunResult as immutable once
// handed out (caches share results across callers).
type Platform interface {
	// Name identifies the backend ("sim", "record", "replay", "cache(...)").
	Name() string
	// Run executes one trial. Cancelling ctx aborts the trial promptly,
	// including mid-simulation for the simulator backend.
	Run(ctx context.Context, spec RunSpec) (*RunResult, error)
}

// Key returns the content-addressed identity of the trial: a hex SHA-256
// over the cluster spec, the workload content (name, scale, file table,
// phases, and every op of every rank), the effective configuration, and the
// seed. It is stable across processes, so it doubles as the on-disk name
// for recorded runs, and its byte encoding is pinned by TestKeyGolden.
//
// Key runs on every rep of every request, cache hits included, so it does
// only per-spec work. The workload part is workload.Digest: free for a
// shared workload from workload.Catalog, which is sealed with its digest
// when built, and a full O(ops) hash for any other workload. The cluster
// spec's text is rendered once per distinct Spec value, the config's name
// order is sorted once per distinct name set, and the config and seed are
// appended with strconv into one buffer hashed in a single call.
//
// A spec made by WithKeyBase skips all of that: the prefix before the seed
// is hashed once per base, and Key clones the saved SHA-256 state and
// writes only the seed and faults lines. The bytes hashed are the same
// either way, so a based key equals the full key.
func (s RunSpec) Key() string {
	if kb := s.base; kb != nil && kb.covers(s) {
		return kb.key(s.Seed)
	}
	var stack [2048]byte
	b := appendKeyPrefix(stack[:0], s)
	b = appendSeedLine(b, s.Seed)
	b = appendFaultsLine(b, s.Faults)
	sum := sha256.Sum256(b)
	return hexKey(sum[:])
}

// appendKeyPrefix appends the seed-independent head of s's key bytes: the
// cluster spec text, the workload digest and the sorted cfg lines.
func appendKeyPrefix(b []byte, s RunSpec) []byte {
	b = append(b, specText(s.Spec)...)
	d := s.Workload.Digest()
	b = append(b, d[:]...)

	b, ok := appendCfgLines(b, s.Config, lastNames.Load())
	if !ok {
		names := make([]string, 0, len(s.Config))
		for k := range s.Config {
			names = append(names, k)
		}
		slices.Sort(names)
		lastNames.Store(&names)
		b, _ = appendCfgLines(b, s.Config, &names)
	}
	return b
}

// lastNames holds the most recently sorted config names. The engine keys
// full snapshots over one registry, so nearly every config has the same
// name set and one entry spares them the sort; a config with another set
// sorts its own names and replaces it.
var lastNames atomic.Pointer[[]string]

// appendCfgLines appends cfg's "cfg name=value" lines in the order of
// names, which are sorted. It reports false, with b unchanged, when names
// is nil or is not exactly cfg's name set.
func appendCfgLines(b []byte, cfg params.Config, names *[]string) ([]byte, bool) {
	if names == nil || len(*names) != len(cfg) {
		return b, false
	}
	start := len(b)
	for _, k := range *names {
		v, ok := cfg[k]
		if !ok {
			return b[:start], false
		}
		b = append(b, "cfg "...)
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, v, 10)
		b = append(b, '\n')
	}
	return b, true
}

func appendSeedLine(b []byte, seed int64) []byte {
	b = append(b, "seed "...)
	b = strconv.AppendInt(b, seed, 10)
	return append(b, '\n')
}

// appendFaultsLine appends the fault plan's key line. The plan only enters
// the digest when non-zero: clean-run keys stay byte-stable across the
// feature's introduction (committed recordings and warm caches keep
// hitting), while any injected fault schedule yields a distinct key.
func appendFaultsLine(b []byte, f lustre.FaultPlan) []byte {
	if f.IsZero() {
		return b
	}
	return fmt.Appendf(b, "faults %#v\n", f)
}

func hexKey(sum []byte) string {
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum)
	return string(out[:])
}

// WithKeyBase returns s carrying its key's seed-independent part, hashed
// once: an evaluation's reps differ only in Seed, so each copy that sets
// its own Seed (or Trace) keys by writing just the seed and faults lines
// onto the saved state. A copy whose Spec, Workload, Config map or fault
// slices are replaced keys in full, so a spec never keys under another
// spec's base; their contents must not be mutated in place, which a
// spec handed to a Platform already promises.
func (s RunSpec) WithKeyBase() RunSpec {
	kh := keyHashers.Get().(*keyHasher)
	defer keyHashers.Put(kh)
	kh.buf = appendKeyPrefix(kh.buf[:0], s)
	kh.h.Reset()
	kh.h.Write(kh.buf)
	state, err := kh.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("platform: saving a SHA-256 state: %v", err))
	}
	s.base = &keyBase{
		spec: s.Spec, w: s.Workload, cfg: s.Config, faults: s.Faults,
		state: state, faultsLine: appendFaultsLine(nil, s.Faults),
	}
	return s
}

// keyBase is a key with its seed left out: the SHA-256 state after the key
// prefix, the faults line that follows the seed, and the fields they were
// rendered from.
type keyBase struct {
	spec       cluster.Spec
	w          *workload.Workload
	cfg        params.Config
	faults     lustre.FaultPlan
	state      []byte
	faultsLine []byte
}

// covers reports whether s still holds the very values kb was rendered
// from. It compares identities, not contents, so it costs no more than a
// few words whatever the config's size.
func (kb *keyBase) covers(s RunSpec) bool {
	return kb.spec == s.Spec && kb.w == s.Workload &&
		len(kb.cfg) == len(s.Config) &&
		reflect.ValueOf(kb.cfg).UnsafePointer() == reflect.ValueOf(s.Config).UnsafePointer() &&
		kb.faults.Seed == s.Faults.Seed && kb.faults.Severity == s.Faults.Severity &&
		sameSlice(kb.faults.OSTs, s.Faults.OSTs) && sameSlice(kb.faults.MDS, s.Faults.MDS)
}

// sameSlice reports whether a and b are the same slice: same length over
// the same backing array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// key finishes the key for seed on a clone of the saved state.
func (kb *keyBase) key(seed int64) string {
	kh := keyHashers.Get().(*keyHasher)
	defer keyHashers.Put(kh)
	if err := kh.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(kb.state); err != nil {
		panic(fmt.Sprintf("platform: restoring a SHA-256 state: %v", err))
	}
	kh.buf = appendSeedLine(kh.buf[:0], seed)
	kh.buf = append(kh.buf, kb.faultsLine...)
	kh.h.Write(kh.buf)
	return hexKey(kh.h.Sum(kh.sum[:0]))
}

// keyHasher is a SHA-256 hash with its scratch buffers. It is pooled, so a
// based key allocates nothing but its string.
type keyHasher struct {
	h   hash.Hash
	buf []byte
	sum [sha256.Size]byte
}

var keyHashers = sync.Pool{New: func() any { return &keyHasher{h: sha256.New()} }}

// renderedSpec is a cluster spec with its key text. Spec fields are all
// scalars, and %#v renders them in declaration order with their field
// names, so any spec change alters the key.
type renderedSpec struct {
	spec cluster.Spec
	text string
}

// lastSpec holds the most recently rendered spec. A process keys nearly all
// its runs against one cluster, so a single entry serves them; a different
// spec just renders and replaces it.
var lastSpec atomic.Pointer[renderedSpec]

func specText(spec cluster.Spec) string {
	if r := lastSpec.Load(); r != nil && r.spec == spec {
		return r.text
	}
	r := &renderedSpec{spec: spec, text: fmt.Sprintf("%#v\n", spec)}
	lastSpec.Store(r)
	return r.text
}

// Simulator is the default Platform: the in-process discrete-event Lustre
// model. The zero value is ready to use.
type Simulator struct{}

// Name implements Platform.
func (Simulator) Name() string { return "sim" }

// Run implements Platform by executing the trial on the simulated file
// system.
func (Simulator) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	res, err := lustre.Run(ctx, spec.Workload, lustre.Options{
		Spec: spec.Spec, Config: spec.Config, Seed: spec.Seed,
		Faults: spec.Faults, Trace: spec.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{WallTime: res.WallTime, Clamped: res.Clamped, Result: res}, nil
}
