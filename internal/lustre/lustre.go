// Package lustre is a discrete-event performance model of a Lustre-like
// parallel file system: llite (readahead, statahead, page cache), osc (RPC
// windows, dirty write-back, short I/O), mdc (metadata RPC windows), lov
// (striping), OST disk/NIC servers, and an MDS with directory-lock
// contention. It substitutes for the paper's CloudLab Lustre 2.15.5
// deployment; every tunable parameter changes simulated wall time through
// the mechanism its manual section describes.
package lustre

import (
	"context"
	"fmt"

	"stellar/internal/cluster"
	"stellar/internal/params"
	"stellar/internal/workload"
)

// Options configures a simulated run.
type Options struct {
	Spec   cluster.Spec
	Config params.Config
	Seed   int64
	Trace  TraceSink // optional; nil disables tracing
	Faults FaultPlan // zero value = healthy cluster, bit-identical to pre-fault runs
}

// TraceSink receives one Event per completed application I/O operation.
// The darshan package implements it.
type TraceSink interface {
	Record(ev Event)
}

// Event describes one completed application operation.
type Event struct {
	Rank       int
	Op         workload.OpType
	File       int32
	Offset     int64
	Size       int64
	Start, End float64
	CacheHit   bool // served from client page cache / lock cache / statahead
	Sequential bool // continued the previous access to the same file
}

// Result summarises a run.
type Result struct {
	WallTime      float64
	BytesRead     int64
	BytesWritten  int64
	DataRPCs      uint64
	MetaRPCs      uint64
	CacheHits     uint64  // page-cache read hits
	RAHits        uint64  // reads served by completed readahead
	RAWasted      int64   // readahead bytes fetched for random access
	StatHits      uint64  // stats/opens served by the client lock/attr cache
	LastDataRPC   float64 // completion time of the last bulk RPC
	LastMetaRPC   float64 // completion time of the last metadata RPC
	FaultStalls   uint64  // RPCs parked at a dropped OST (always 0 on clean runs)
	FaultStallSec float64 // total time RPCs spent waiting out OST dropouts
	BarrierTimes  []float64
	Clamped       []string // parameters clamped into range before the run
}

// cfgValues is the decoded, typed view of a params.Config.
type cfgValues struct {
	stripeCount int
	stripeSize  int64
	rpcWindow   int
	rpcBytes    int64
	dirtyBytes  int64
	shortIO     int64
	raBytes     int64 // global readahead budget per node
	raFileBytes int64 // per-file readahead window
	cachedBytes int64
	statahead   int
	mdcWindow   int
	mdcModWin   int
	lruSize     int
	checksums   bool
}

const pageSize = 4096

// lruAuto is the modelled effective lock-cache size when ldlm.lru_size is 0
// (Lustre's automatic sizing).
const lruAuto = 1000

func decodeConfig(cfg params.Config, spec cluster.Spec, reg *params.Registry) (cfgValues, []string, error) {
	env := params.SystemEnv(int64(spec.MemoryMBPerNode), int64(spec.OSTCount), nil)
	clamped, clampedNames := params.Clamp(cfg, reg, env)
	get := func(name string) int64 {
		if v, ok := clamped[name]; ok {
			return v
		}
		p, ok := reg.Get(name)
		if !ok {
			panic("lustre: unknown parameter " + name)
		}
		return p.Default
	}
	v := cfgValues{
		stripeCount: int(get("lov.stripe_count")),
		stripeSize:  get("lov.stripe_size"),
		rpcWindow:   int(get("osc.max_rpcs_in_flight")),
		rpcBytes:    get("osc.max_pages_per_rpc") * pageSize,
		dirtyBytes:  get("osc.max_dirty_mb") << 20,
		shortIO:     get("osc.short_io_bytes"),
		raBytes:     get("llite.max_read_ahead_mb") << 20,
		raFileBytes: get("llite.max_read_ahead_per_file_mb") << 20,
		cachedBytes: get("llite.max_cached_mb") << 20,
		statahead:   int(get("llite.statahead_max")),
		mdcWindow:   int(get("mdc.max_rpcs_in_flight")),
		mdcModWin:   int(get("mdc.max_mod_rpcs_in_flight")),
		lruSize:     int(get("ldlm.lru_size")),
		checksums:   get("osc.checksums") != 0,
	}
	if v.stripeCount == -1 || v.stripeCount > spec.OSTCount {
		v.stripeCount = spec.OSTCount
	}
	if v.stripeCount < 1 {
		v.stripeCount = 1
	}
	if v.rpcBytes > v.stripeSize {
		v.rpcBytes = v.stripeSize
	}
	if v.raFileBytes > v.raBytes {
		v.raFileBytes = v.raBytes
	}
	if v.lruSize == 0 {
		v.lruSize = lruAuto
	}
	return v, clampedNames, nil
}

// Run executes the workload on the simulated file system and returns the
// measured result. It validates the workload first and returns an error for
// malformed inputs rather than panicking mid-simulation. Cancelling ctx
// aborts the discrete-event loop itself within a bounded number of events,
// so a SIGINT unwinds a long simulation promptly instead of waiting for the
// run to drain.
//
// The caller owns the returned Result outright: it shares no memory with
// the run or with the pooled scratch behind it, and its BarrierTimes and
// Clamped slices own their backing arrays. Holding a Result, as the run
// cache does, retains only the Result itself.
func Run(ctx context.Context, w *workload.Workload, opts Options) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	if w.NumRanks() != opts.Spec.TotalRanks() {
		return nil, fmt.Errorf("lustre: workload has %d ranks but cluster provides %d",
			w.NumRanks(), opts.Spec.TotalRanks())
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	reg := params.Lustre()
	cv, clamped, err := decodeConfig(opts.Config, opts.Spec, reg)
	if err != nil {
		return nil, err
	}
	// The scratch (engine, op arenas, per-slot continuations, tables) is
	// pooled across runs; only the simulated servers are rebuilt, so
	// repeated evaluations reach an allocation-free steady state on the op
	// paths and in per-file setup.
	sc := acquireScratch(w.NumRanks())
	defer sc.release()
	res, err := newRunner(w, opts, cv, sc).run(ctx)
	if err != nil {
		return nil, err
	}
	res.Clamped = clamped
	return res, nil
}
