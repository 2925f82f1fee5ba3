package lustre

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stellar/internal/cluster"
	"stellar/internal/params"
	"stellar/internal/workload"
)

func testSpec() cluster.Spec {
	s := cluster.Default()
	s.ClientNodes = 2
	s.ProcsPerNode = 2
	s.OSTCount = 3
	return s
}

func defaultCfg() params.Config {
	return params.DefaultConfig(params.Lustre())
}

func smallIOR(random bool) *workload.Workload {
	return workload.IOR(workload.IORSpec{
		Ranks: 4, TransferSize: 1 << 20, BlockSize: 16 << 20, Blocks: 1,
		Random: random, ReadBack: true, Seed: 7,
	}, 1.0)
}

func runOn(t *testing.T, w *workload.Workload, spec cluster.Spec, cfg params.Config, seed int64) *Result {
	t.Helper()
	res, err := Run(context.Background(), w, Options{Spec: spec, Config: cfg, Seed: seed})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WallTime <= 0 {
		t.Fatalf("non-positive wall time %g", res.WallTime)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	w := smallIOR(false)
	spec := cluster.Default() // 50 ranks, workload has 4
	if _, err := Run(context.Background(), w, Options{Spec: spec, Config: defaultCfg()}); err == nil {
		t.Fatal("rank mismatch not detected")
	}
	bad := &workload.Workload{Name: "bad"}
	if _, err := Run(context.Background(), bad, Options{Spec: testSpec(), Config: defaultCfg()}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// TestRunRejectsNonFiniteInputs: a NaN bandwidth, or a negative or NaN
// time, used to pass validation and then panic inside the simulator (in
// sim.NewPipe, or in the scheduler mid-run). Run must return an error
// instead.
func TestRunRejectsNonFiniteInputs(t *testing.T) {
	nan := math.NaN()
	cases := map[string]struct {
		spec  func(*cluster.Spec)
		think float64
	}{
		"NaN NIC":         {spec: func(s *cluster.Spec) { s.NICBandwidth = nan }},
		"NaN disk write":  {spec: func(s *cluster.Spec) { s.DiskWriteBW = nan }},
		"negative RTT":    {spec: func(s *cluster.Spec) { s.NetworkRTT = -1e-4 }},
		"NaN RTT":         {spec: func(s *cluster.Spec) { s.NetworkRTT = nan }},
		"negative seek":   {spec: func(s *cluster.Spec) { s.DiskSeekTime = -1 }},
		"NaN RPC floor":   {spec: func(s *cluster.Spec) { s.RPCServiceFloor = nan }},
		"negative create": {spec: func(s *cluster.Spec) { s.MDSCreateTime = -1 }},
		"NaN think time":  {think: nan},
		"negative think":  {think: -1e-6},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			spec := testSpec()
			if c.spec != nil {
				c.spec(&spec)
			}
			w := smallIOR(false)
			if c.think != 0 {
				w.ComputePerOp = c.think
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Run panicked instead of returning an error: %v", p)
				}
			}()
			if _, err := Run(context.Background(), w, Options{Spec: spec, Config: defaultCfg()}); err == nil {
				t.Fatal("invalid input accepted")
			}
		})
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	w := smallIOR(true)
	spec := testSpec()
	a := runOn(t, w, spec, defaultCfg(), 1)
	b := runOn(t, w, spec, defaultCfg(), 1)
	if a.WallTime != b.WallTime {
		t.Fatalf("same seed gave %g vs %g", a.WallTime, b.WallTime)
	}
	c := runOn(t, w, spec, defaultCfg(), 2)
	if c.WallTime == a.WallTime {
		t.Fatal("different seeds gave identical wall time; no noise modelled")
	}
}

func TestAccountingMatchesWorkload(t *testing.T) {
	w := smallIOR(false)
	res := runOn(t, w, testSpec(), defaultCfg(), 3)
	wantRead, wantWritten := w.TotalBytes()
	if res.BytesRead != wantRead || res.BytesWritten != wantWritten {
		t.Fatalf("bytes = (%d, %d), want (%d, %d)",
			res.BytesRead, res.BytesWritten, wantRead, wantWritten)
	}
	if res.DataRPCs == 0 || res.MetaRPCs == 0 {
		t.Fatal("no RPCs recorded")
	}
}

func TestStripingSpeedsUpLargeSequential(t *testing.T) {
	w := smallIOR(false)
	spec := testSpec()
	one := defaultCfg()
	one["lov.stripe_count"] = 1
	all := defaultCfg()
	all["lov.stripe_count"] = -1
	all["lov.stripe_size"] = 4 << 20
	t1 := runOn(t, w, spec, one, 5).WallTime
	tn := runOn(t, w, spec, all, 5).WallTime
	if tn >= t1 {
		t.Fatalf("striping did not help: 1 OST %.3fs vs all OSTs %.3fs", t1, tn)
	}
	if t1/tn < 1.5 {
		t.Fatalf("striping speedup only %.2fx, want > 1.5x", t1/tn)
	}
}

func TestRPCWindowHelpsRandomSmall(t *testing.T) {
	w := smallIOR(true)
	spec := testSpec()
	narrow := defaultCfg()
	narrow["osc.max_rpcs_in_flight"] = 1
	wide := defaultCfg()
	wide["osc.max_rpcs_in_flight"] = 64
	tN := runOn(t, w, spec, narrow, 5).WallTime
	tW := runOn(t, w, spec, wide, 5).WallTime
	if tW >= tN {
		t.Fatalf("wider RPC window did not help: %g vs %g", tN, tW)
	}
}

func TestDirtyCacheAbsorbsWrites(t *testing.T) {
	// With compute between writes, an ample dirty cache overlaps write-back
	// with computation; a tiny limit forces writers to block on RPCs.
	w := workload.IOR(workload.IORSpec{
		Ranks: 4, TransferSize: 1 << 20, BlockSize: 8 << 20, Blocks: 1,
		Random: false, ReadBack: false, Seed: 9,
	}, 1.0)
	w.ComputePerOp = 3e-3
	spec := testSpec()
	tiny := defaultCfg()
	tiny["osc.max_dirty_mb"] = 1
	big := defaultCfg()
	big["osc.max_dirty_mb"] = 512
	tT := runOn(t, w, spec, tiny, 4).WallTime
	tB := runOn(t, w, spec, big, 4).WallTime
	if tB >= tT {
		t.Fatalf("large dirty cache did not help compute-overlapped writes: %g vs %g", tB, tT)
	}
}

func TestReadaheadHelpsSequentialRead(t *testing.T) {
	w := smallIOR(false)
	spec := testSpec()
	// Striped layout so reads are latency-bound rather than single-spindle
	// bound; readahead hides that latency.
	off := defaultCfg()
	off["lov.stripe_count"] = -1
	off["llite.max_read_ahead_mb"] = 0
	off["llite.max_read_ahead_per_file_mb"] = 0
	on := defaultCfg()
	on["lov.stripe_count"] = -1
	on["llite.max_read_ahead_mb"] = 256
	on["llite.max_read_ahead_per_file_mb"] = 128
	tOff := runOn(t, w, spec, off, 6)
	tOn := runOn(t, w, spec, on, 6)
	if tOn.RAHits == 0 {
		t.Fatal("no readahead hits on a sequential read workload")
	}
	if tOn.WallTime >= tOff.WallTime {
		t.Fatalf("readahead did not help sequential reads: %g vs %g", tOff.WallTime, tOn.WallTime)
	}
}

func TestReadaheadWastesOnRandom(t *testing.T) {
	w := smallIOR(true)
	spec := testSpec()
	on := defaultCfg()
	res := runOn(t, w, spec, on, 8)
	if res.RAWasted == 0 {
		t.Fatal("random access produced no wasted readahead with RA enabled")
	}
	off := defaultCfg()
	off["llite.max_read_ahead_mb"] = 0
	off["llite.max_read_ahead_per_file_mb"] = 0
	resOff := runOn(t, w, spec, off, 8)
	if resOff.RAWasted != 0 {
		t.Fatal("wasted readahead with RA disabled")
	}
	if resOff.WallTime >= res.WallTime {
		t.Fatalf("disabling RA did not help random access: %g vs %g", res.WallTime, resOff.WallTime)
	}
}

func mdWorkload() *workload.Workload {
	return workload.MDWorkbench(workload.MDWorkbenchSpec{
		Ranks: 4, DirsPerRank: 2, FilesPerDir: 40, FileSize: 8 << 10, Rounds: 2,
	}, 1.0)
}

func TestStatAheadAcceleratesScan(t *testing.T) {
	// MDTest-easy style scan: create all, then stat all in order.
	ranks := 4
	spec := testSpec()
	w := workload.IO500(ranks, 0.1)
	// A small lock LRU forces create-time cache entries out before the stat
	// scan returns, so the scan must either statahead or pay per-entry RPCs.
	saOff := defaultCfg()
	saOff["ldlm.lru_size"] = 64
	saOff["llite.statahead_max"] = 0
	saOn := defaultCfg()
	saOn["ldlm.lru_size"] = 64
	saOn["llite.statahead_max"] = 256
	saOn["mdc.max_rpcs_in_flight"] = 64
	rOff := runOn(t, w, spec, saOff, 2)
	rOn := runOn(t, w, spec, saOn, 2)
	if rOn.StatHits <= rOff.StatHits {
		t.Fatalf("statahead produced no extra hits: %d vs %d", rOn.StatHits, rOff.StatHits)
	}
	if rOn.WallTime >= rOff.WallTime {
		t.Fatalf("statahead did not help: %g vs %g", rOff.WallTime, rOn.WallTime)
	}
}

func TestMetadataWindowMatters(t *testing.T) {
	w := mdWorkload()
	spec := testSpec()
	narrow := defaultCfg()
	narrow["mdc.max_rpcs_in_flight"] = 2
	narrow["mdc.max_mod_rpcs_in_flight"] = 1
	wide := defaultCfg()
	wide["mdc.max_rpcs_in_flight"] = 64
	wide["mdc.max_mod_rpcs_in_flight"] = 32
	tN := runOn(t, w, spec, narrow, 3).WallTime
	tW := runOn(t, w, spec, wide, 3).WallTime
	if tW >= tN {
		t.Fatalf("wider metadata windows did not help: %g vs %g", tN, tW)
	}
}

func TestWideStripingHurtsSmallFileCreates(t *testing.T) {
	w := mdWorkload()
	spec := testSpec()
	one := defaultCfg()
	one["lov.stripe_count"] = 1
	all := defaultCfg()
	all["lov.stripe_count"] = -1
	t1 := runOn(t, w, spec, one, 4).WallTime
	tn := runOn(t, w, spec, all, 4).WallTime
	if tn <= t1 {
		t.Fatalf("wide striping should hurt small-file workloads: stripe1 %g vs all %g", t1, tn)
	}
}

func TestPageCacheServesReadBack(t *testing.T) {
	// MDWorkbench reads data the same rank just wrote: cache hits expected.
	w := mdWorkload()
	res := runOn(t, w, testSpec(), defaultCfg(), 5)
	if res.CacheHits == 0 {
		t.Fatal("no page-cache hits on write-then-read-back workload")
	}
}

func TestClampedConfigReported(t *testing.T) {
	cfg := defaultCfg()
	cfg["osc.max_rpcs_in_flight"] = 99999
	res := runOn(t, smallIOR(false), testSpec(), cfg, 1)
	if len(res.Clamped) != 1 || res.Clamped[0] != "osc.max_rpcs_in_flight" {
		t.Fatalf("clamped = %v", res.Clamped)
	}
}

func TestTraceSinkReceivesEvents(t *testing.T) {
	var events []Event
	sink := sinkFunc(func(ev Event) { events = append(events, ev) })
	w := smallIOR(false)
	_, err := Run(context.Background(), w, Options{Spec: testSpec(), Config: defaultCfg(), Seed: 1, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != w.TotalOps() {
		t.Fatalf("got %d events, want %d ops", len(events), w.TotalOps())
	}
	for _, ev := range events {
		if ev.End < ev.Start {
			t.Fatalf("event ends before it starts: %+v", ev)
		}
	}
}

type sinkFunc func(Event)

func (f sinkFunc) Record(ev Event) { f(ev) }

// Property: any valid config yields a finite positive wall time, and more
// aggressive resource limits never make the simulator panic.
func TestAnyValidConfigRuns(t *testing.T) {
	reg := params.Lustre()
	names := params.TunableNames(reg)
	w := workload.IOR(workload.IORSpec{
		Ranks: 4, TransferSize: 256 << 10, BlockSize: 4 << 20, Blocks: 1,
		Random: true, ReadBack: true, Seed: 11,
	}, 1.0)
	spec := testSpec()
	env := params.SystemEnv(int64(spec.MemoryMBPerNode), int64(spec.OSTCount), nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := params.DefaultConfig(reg)
		for _, n := range names {
			p, _ := reg.Get(n)
			lo, hi, err := p.Bounds(params.SystemEnv(int64(spec.MemoryMBPerNode), int64(spec.OSTCount), cfg))
			if err != nil {
				continue
			}
			span := hi - lo
			if span > 0 {
				cfg[n] = lo + rng.Int63n(span+1)
			}
		}
		cfg, _ = params.Clamp(cfg, reg, env)
		res, err := Run(context.Background(), w, Options{Spec: spec, Config: cfg, Seed: seed})
		return err == nil && res.WallTime > 0 && res.WallTime < 1e6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeChunksProperty(t *testing.T) {
	spec := testSpec()
	r := &runner{spec: spec}
	f := func(off uint32, size uint16, stripeKB uint8) bool {
		fs := &fileState{
			stripeCount: 3,
			stripeSize:  int64(stripeKB%16+1) << 10,
			startOST:    1,
		}
		o, s := int64(off), int64(size)+1
		chunks := r.stripeChunks(fs, o, s)
		var sum int64
		prev := o
		for _, c := range chunks {
			if c.off != prev {
				return false // not contiguous
			}
			if c.size <= 0 || c.size > fs.stripeSize {
				return false
			}
			if c.ost < 0 || c.ost >= spec.OSTCount {
				return false
			}
			prev = c.off + c.size
			sum += c.size
		}
		return sum == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
