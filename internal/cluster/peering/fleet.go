package peering

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/flight"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/runcache"
	"stellar/internal/workload"
)

// InternalRunPath is the fleet-internal endpoint owners serve forwarded
// runs on. It lives outside /v1 deliberately: the wire form is a private
// fleet contract, not public API, and operators can firewall it separately.
const InternalRunPath = "/internal/v1/run"

// ForwardRequest is the compact wire form of a RunSpec. The op streams are
// never shipped — both sides regenerate the workload deterministically from
// (name, ranks, scale) via workload.Catalog, and the owner verifies the
// rebuilt spec hashes to the forwarder's key before running, so any
// catalog divergence between nodes is a hard 409 rather than a silently
// different measurement.
type ForwardRequest struct {
	Key      string            `json:"key"`
	Workload string            `json:"workload"`
	Scale    float64           `json:"scale"`
	Spec     cluster.Spec      `json:"spec"`
	Config   params.Config     `json:"config,omitempty"`
	Seed     int64             `json:"seed"`
	Faults   *lustre.FaultPlan `json:"faults,omitempty"`
}

// NewForwardRequest compacts spec for the wire. key must be spec.Key().
func NewForwardRequest(spec platform.RunSpec, key string) ForwardRequest {
	req := ForwardRequest{
		Key:      key,
		Workload: spec.Workload.Name,
		Scale:    spec.Workload.Scale,
		Spec:     spec.Spec,
		Config:   spec.Config,
		Seed:     spec.Seed,
	}
	if !spec.Faults.IsZero() {
		faults := spec.Faults
		req.Faults = &faults
	}
	return req
}

// RunSpec rebuilds the full trial on the owner side, regenerating the op
// streams from the catalog. Unknown workload names surface as
// workload.ErrUnknown for the handler to map onto its error code. The
// scale is held to the (0, 1.0] band /v1/sweeps admits, so a forward can
// never make the owner generate a workload larger than the paper's.
func (f ForwardRequest) RunSpec() (platform.RunSpec, error) {
	if err := f.Spec.Validate(); err != nil {
		return platform.RunSpec{}, fmt.Errorf("peering: invalid cluster spec: %w", err)
	}
	if !(f.Scale > 0 && f.Scale <= 1) {
		return platform.RunSpec{}, fmt.Errorf("peering: scale must be in (0, 1.0], got %g", f.Scale)
	}
	wl, err := workload.Catalog(f.Workload, f.Spec.TotalRanks(), f.Scale)
	if err != nil {
		return platform.RunSpec{}, err
	}
	spec := platform.RunSpec{Spec: f.Spec, Workload: wl, Config: f.Config, Seed: f.Seed}
	if f.Faults != nil {
		spec.Faults = *f.Faults
	}
	return spec, nil
}

// Stats is the cluster gauge block in /v1/stats. Self and Peers are
// configuration, the rest are monotonic counters: Local counts runs
// executed on this node's own cache (owned keys, single-node rings, traced
// runs, and fallbacks), Forwards counts forward attempts to remote owners,
// ForwardErrs the attempts that failed and degraded to local execution,
// CoalescedRemote the duplicate in-flight forwards that piggybacked on an
// existing one instead of dialing, and ServedForwards the runs this node
// executed on behalf of remote forwarders.
type Stats struct {
	Self            string   `json:"self"`
	Peers           []string `json:"peers"`
	Local           uint64   `json:"local"`
	Forwards        uint64   `json:"forwards"`
	ForwardErrs     uint64   `json:"forward_errs"`
	CoalescedRemote uint64   `json:"coalesced_remote"`
	ServedForwards  uint64   `json:"served_forwards"`
}

// Delta returns s - before, each counter clamped by runcache.CounterDelta
// exactly as runcache.Stats.Delta clamps its own: counters never go
// negative even if "before" is from a different process lifetime. Self and
// Peers carry over from s.
func (s Stats) Delta(before Stats) Stats {
	return Stats{
		Self:            s.Self,
		Peers:           s.Peers,
		Local:           runcache.CounterDelta(s.Local, before.Local),
		Forwards:        runcache.CounterDelta(s.Forwards, before.Forwards),
		ForwardErrs:     runcache.CounterDelta(s.ForwardErrs, before.ForwardErrs),
		CoalescedRemote: runcache.CounterDelta(s.CoalescedRemote, before.CoalescedRemote),
		ServedForwards:  runcache.CounterDelta(s.ServedForwards, before.ServedForwards),
	}
}

// Fleet is a platform.Platform that routes each run to its rendezvous
// owner. Owned keys (and single-node rings, traced runs, and unreachable
// owners) execute on the local cache; everything else is forwarded to the
// owner's InternalRunPath, with concurrent duplicates coalesced so one
// node emits at most one in-flight forward per key.
type Fleet struct {
	self   string
	ring   *Ring
	local  platform.Platform
	client *http.Client

	// flights coalesces duplicate forwards; its Joined count is
	// CoalescedRemote.
	flights flight.Group[*platform.RunResult]

	localRuns   atomic.Uint64
	forwards    atomic.Uint64
	forwardErrs atomic.Uint64
	served      atomic.Uint64
}

// New builds a fleet member. self is this node's advertised host:port;
// peers is the full membership (self is added if absent, so both
// "-peers lists everyone" and "-peers lists the others" configurations
// work). local is the node's own cache-backed platform.
func New(self string, peers []string, local platform.Platform) (*Fleet, error) {
	if self == "" {
		return nil, errors.New("peering: self address required when peers are configured")
	}
	if local == nil {
		return nil, errors.New("peering: local platform required")
	}
	ring := NewRing(append(append([]string(nil), peers...), self))
	return &Fleet{
		self:  self,
		ring:  ring,
		local: local,
		client: &http.Client{
			// Connect fast or fall back fast: a dead peer should cost ~2s,
			// not a kernel-default TCP timeout. No overall response timeout —
			// the owner answers only after the simulation finishes, and the
			// request context already bounds how long the caller will wait.
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}, nil
}

// Name implements platform.Platform.
func (f *Fleet) Name() string { return "peers(" + f.local.Name() + ")" }

// Ring exposes the membership ring (ownership checks in tests and stats).
func (f *Fleet) Ring() *Ring { return f.ring }

// Self returns this node's advertised address.
func (f *Fleet) Self() string { return f.self }

// MarkServed counts one run executed on behalf of a remote forwarder; the
// owner-side HTTP handler calls it.
func (f *Fleet) MarkServed() { f.served.Add(1) }

// Stats snapshots the cluster counters.
func (f *Fleet) Stats() Stats {
	return Stats{
		Self:            f.self,
		Peers:           f.ring.Members(),
		Local:           f.localRuns.Load(),
		Forwards:        f.forwards.Load(),
		ForwardErrs:     f.forwardErrs.Load(),
		CoalescedRemote: f.flights.Joined(),
		ServedForwards:  f.served.Load(),
	}
}

// Run implements platform.Platform. Traced runs always execute locally:
// the TraceSink is a caller-held observer that cannot cross a process
// boundary (and Trace is excluded from the key, so forwarding one would
// return a result without its events).
func (f *Fleet) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	if spec.Trace != nil || f.ring.Len() < 2 {
		f.localRuns.Add(1)
		return f.local.Run(ctx, spec)
	}
	key := spec.Key()
	owner := f.ring.Owner(key)
	if owner == f.self {
		f.localRuns.Add(1)
		return f.local.Run(ctx, spec)
	}
	return f.flights.Do(ctx, key, func() (*platform.RunResult, error) {
		return f.runRemote(ctx, owner, key, spec)
	})
}

// runRemote forwards one run to owner, falling back to local execution when
// the forward fails for any reason other than the caller's own
// cancellation. The fallback trades placement for availability: the result
// is identical (same spec, deterministic simulator), it just lands in the
// wrong node's cache until the owner comes back.
func (f *Fleet) runRemote(ctx context.Context, owner, key string, spec platform.RunSpec) (*platform.RunResult, error) {
	f.forwards.Add(1)
	res, err := f.forward(ctx, owner, key, spec)
	if err == nil {
		return res, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	f.forwardErrs.Add(1)
	f.localRuns.Add(1)
	return f.local.Run(ctx, spec)
}

func (f *Fleet) forward(ctx context.Context, owner, key string, spec platform.RunSpec) (*platform.RunResult, error) {
	body, err := json.Marshal(NewForwardRequest(spec, key))
	if err != nil {
		return nil, fmt.Errorf("peering: marshal forward: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+owner+InternalRunPath, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("peering: build forward: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("peering: forward to %s: %w", owner, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("peering: read from %s: %w", owner, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peering: owner %s: %s: %s", owner, resp.Status, firstLine(data))
	}
	var res platform.RunResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("peering: decode from %s: %w", owner, err)
	}
	return &res, nil
}

func firstLine(data []byte) string {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(data)
}
