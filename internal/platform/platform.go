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
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
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
// spec's text is rendered once per distinct Spec value, and the config and
// seed are appended with strconv into one buffer hashed in a single call.
func (s RunSpec) Key() string {
	var stack [2048]byte
	b := append(stack[:0], specText(s.Spec)...)
	d := s.Workload.Digest()
	b = append(b, d[:]...)

	var nameStack [64]string
	names := nameStack[:0]
	for k := range s.Config {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		b = append(b, "cfg "...)
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, s.Config[k], 10)
		b = append(b, '\n')
	}
	b = append(b, "seed "...)
	b = strconv.AppendInt(b, s.Seed, 10)
	b = append(b, '\n')
	// The fault plan only enters the digest when non-zero: clean-run keys
	// stay byte-stable across the feature's introduction (committed
	// recordings and warm caches keep hitting), while any injected fault
	// schedule yields a distinct key.
	if !s.Faults.IsZero() {
		b = fmt.Appendf(b, "faults %#v\n", s.Faults)
	}
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

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
