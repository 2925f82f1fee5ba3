package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/procfs"
	"stellar/internal/runcache"
	"stellar/internal/server"
	"stellar/internal/sim"
	"stellar/internal/stats"
	"stellar/internal/workload"
)

const (
	evalScale = 0.05
	evalReps  = 8
	// Two connections against two workers: requests never queue for a
	// worker, so pool admission is constant work, not a wait.
	evalWorkers = 2
	evalConns   = 2
	// Fixed open-loop rates, far enough below saturation that latency
	// measures the server, not a growing backlog. On a 2-vCPU host, the
	// closed loop of fixedPass over two connections served 1200-2400
	// requests/s of the warm mix and about 3700/s of the disk mix, so these
	// are 10-25% of capacity. The generator then sends a median of about
	// 0.09 ms late (loadgen.late_p50_ms).
	warmRate = 300.0
	diskRate = 350.0
	zipfS    = 1.1
	// The disk tier's memory LRU holds 64 results against diskSpecs*evalReps
	// persisted ones, so nearly every rep is read back from disk.
	diskSpecs     = 128
	diskCacheSize = 64
	// setups is how often a run builds the workload; setup_s is the median.
	setups = 5
	// fixedPassOps requests cycle through the specs in order to end set-up
	// and the measured phase. The last 128 fix which workloads the key
	// digest memo holds, and so the live heap, whatever the seed.
	fixedPassOps = 256
	replayOps    = 400
	evalMaxOut   = 1 << 20
)

var (
	warmFamilies = []string{"IOR_64K", "IOR_16M", "MDWorkbench_2K", "MDWorkbench_8K", "IO500", "AMReX", "MACSio_512K", "MACSio_16M"}
	// Light families: small op streams, so workload build does not mask the
	// disk read.
	diskFamilies = []string{"IOR_16M", "AMReX", "MACSio_512K"}
	tunedConfig  = map[string]int64{"lov.stripe_count": 4, "osc.max_rpcs_in_flight": 16}
)

// evalBody is the body of one distinct /v1/evaluate request.
func evalBody(family string, cfg map[string]int64, seed int64) []byte {
	body, _ := json.Marshal(server.EvaluateRequest{Workload: family, Config: cfg, Reps: evalReps, Seed: seed}) // plain struct of strings and numbers
	return body
}

// The spec sets are fixed; the workload seed draws the traffic over them.
// Results, and so the memory they hold and the time to simulate them,
// differ from one spec seed to another, and that would show as noise
// between runs.

// warmSpecs is every paper family at defaults and at one tuned config.
// Popularity follows list order.
func warmSpecs() [][]byte {
	var out [][]byte
	for i, f := range warmFamilies {
		out = append(out, evalBody(f, nil, int64(2*i+1)), evalBody(f, tunedConfig, int64(2*i+2)))
	}
	return out
}

func diskSpecList() [][]byte {
	out := make([][]byte, diskSpecs)
	for i := range out {
		out[i] = evalBody(diskFamilies[i%len(diskFamilies)], nil, int64(i+1))
	}
	return out
}

// evalEnv is one served evaluate workload: an in-process server on
// loopback, its cache, and the bodies setup saw for each spec.
type evalEnv struct {
	specs  [][]byte
	golden [][]byte
	dir    string
	cache  *runcache.Cache
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	client *http.Client
	url    string
}

func startEval(disk bool, specs [][]byte, dir string, inner platform.Platform) (*evalEnv, error) {
	opts := runcache.Options{}
	if disk {
		opts = runcache.Options{Capacity: diskCacheSize, Dir: dir}
	}
	cache := runcache.NewWithOptions(inner, opts)
	srv, err := server.New(server.Options{Cache: cache, Scale: evalScale, Workers: evalWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &evalEnv{
		specs: specs, golden: make([][]byte, len(specs)), dir: dir, cache: cache, srv: srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: evalConns, MaxIdleConnsPerHost: evalConns, DisableCompression: true,
		}},
		url: "http://" + ln.Addr().String() + "/v1/evaluate",
	}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return e, nil
}

func (e *evalEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.client.CloseIdleConnections()
	e.srv.Close()
}

// post sends one spec and reports whether the reply is a 200 whose body is
// byte-identical to the one setup recorded for the spec.
func (e *evalEnv) post(ctx context.Context, i int) (ok, mismatch bool) {
	body, status, err := e.send(ctx, i)
	if err != nil || status != http.StatusOK {
		return false, false
	}
	if !bytes.Equal(body, e.golden[i]) {
		return false, true
	}
	return true, false
}

func (e *evalEnv) send(ctx context.Context, i int) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url, bytes.NewReader(e.specs[i]))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, evalMaxOut))
	return body, resp.StatusCode, err
}

// prefill simulates every spec once over HTTP and records its body: the
// reference every later reply must match byte for byte.
func (e *evalEnv) prefill(ctx context.Context) (failed int) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < evalConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(e.specs) {
					return
				}
				body, status, err := e.send(ctx, i)
				mu.Lock()
				if err != nil || status != http.StatusOK {
					failed++
				} else {
					e.golden[i] = body
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failed
}

// fixedPass sends fixedPassOps requests, cycling through the specs in
// order, back to back over evalConns connections.
func (e *evalEnv) fixedPass(ctx context.Context) (failed, mismatched int) {
	due := make([]time.Duration, fixedPassOps) // all due at once: each sender runs flat out
	var mis atomic.Int64
	samples := openLoop(ctx, due, evalConns, func(ctx context.Context, i int) bool {
		ok, m := e.post(ctx, i%len(e.specs))
		if m {
			mis.Add(1)
		}
		return ok
	})
	return summarize(samples).failed, int(mis.Load())
}

// setupEval builds a served workload and warms it: prefill, then a fixed
// pass over the specs. It reports how many of those requests failed; a
// spec whose prefill failed has no reference body, so every later request
// for it fails too.
func setupEval(ctx context.Context, disk bool, specs [][]byte, dir string, inner platform.Platform) (*evalEnv, int, error) {
	e, err := startEval(disk, specs, dir, inner)
	if err != nil {
		return nil, 0, err
	}
	failed := e.prefill(ctx)
	f, _ := e.fixedPass(ctx)
	return e, failed + f, nil
}

func runEvaluate(ctx context.Context, name string, cfg runConfig) (*outcome, error) {
	disk := name == "evaluate-disk"
	specs, rate := warmSpecs(), warmRate
	if disk {
		specs, rate = diskSpecList(), diskRate
	}
	due := poissonDue(cfg.seed, rate, cfg.seconds)
	var picks []int
	if disk {
		picks = uniformPicks(cfg.seed, len(due), len(specs))
	} else {
		picks = zipfPicks(cfg.seed, len(due), len(specs), zipfS)
	}

	var below *timedPlatform
	var inner platform.Platform = platform.Simulator{}
	n := setups
	if cfg.trace {
		below = &timedPlatform{inner: inner}
		inner, n = below, 1
	}
	var (
		env         *evalEnv
		setup       setupTimes
		setupFailed int
		retained    float64
	)
	for k := 0; k < n; k++ {
		dir, err := os.MkdirTemp(cfg.work, name+"-")
		if err != nil {
			return nil, err
		}
		heap0 := liveHeapMB()
		start := time.Now()
		e, failed, err := setupEval(ctx, disk, specs, dir, inner)
		if err != nil {
			return nil, err
		}
		setup.add(time.Since(start))
		setupFailed += failed
		fmt.Printf("phase setup %d: attempted=%d failed=%d took=%.3fs heap=%.1fMiB\n", k, len(specs)+fixedPassOps, failed, setup.secs[k], setup.heaps[k])
		retained = ratio((setup.heaps[k]-heap0)*1024, float64(e.cache.Stats().Entries))
		if k < n-1 {
			e.close()
			os.RemoveAll(dir)
			continue
		}
		env = e
	}
	defer env.close()

	// Measured phase.
	var mismatched atomic.Int64
	cache0 := env.cache.Stats()
	ev0 := sim.TotalFired()
	var runs0 int
	var busy0 time.Duration
	if below != nil {
		runs0, busy0, _, _ = below.snapshot()
	}
	p0 := readProc(cfg.trace)
	samples := openLoop(ctx, due, evalConns, func(ctx context.Context, i int) bool {
		ok, m := env.post(ctx, picks[i])
		if m {
			mismatched.Add(1)
		}
		return ok
	})
	p1 := readProc(cfg.trace)
	t := summarize(samples)
	fmt.Printf("phase measured: attempted=%d failed=%d mismatched=%d rate=%.0f/s tail=%s\n",
		t.attempted, t.failed, mismatched.Load(), rate, t.tailText())
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	o := &outcome{
		correct:   t.failed == 0 && mismatched.Load() == 0 && setupFailed == 0,
		attempted: t.attempted,
		failed:    t.failed,
		metrics:   map[string]float64{},
	}
	done := float64(t.attempted - t.failed)
	if !cfg.trace {
		f, m := env.fixedPass(ctx)
		fmt.Printf("phase closing: attempted=%d failed=%d mismatched=%d\n", fixedPassOps, f, m)
		o.attempted += fixedPassOps
		o.failed += f
		o.correct = o.correct && f == 0
		o.metrics = endToEndMetrics(t, p1.cpu-p0.cpu, liveHeapMB(), setup)
		return o, nil
	}

	for _, d := range perLayer {
		o.metrics[d.name] = 0
	}
	cs := env.cache.Stats().Delta(cache0)
	lookups := float64(cs.Hits + cs.DiskHits + cs.Misses + cs.Coalesced)
	runs1, busy1, _, _ := below.snapshot()
	simRuns, simBusy, events := runs1-runs0, busy1-busy0, sim.TotalFired()-ev0
	o.metrics["runcache.mem_hit_ratio"] = float64(cs.Hits) / lookups
	o.metrics["runcache.disk_hit_ratio"] = float64(cs.DiskHits) / lookups
	o.metrics["runcache.retained_kb_per_entry"] = retained
	o.metrics["sim.events_per_run"] = ratio(float64(events), float64(simRuns))
	o.metrics["lustre.run_ms"] = ratio(ms(simBusy), float64(simRuns))
	o.metrics["sim.mevents_per_s"] = ratio(float64(events), simBusy.Seconds()) / 1e6
	o.metrics["process.allocs_per_op"] = ratio(float64(p1.mallocs-p0.mallocs), done)
	o.metrics["process.gc_cpu_frac"] = ratio(p1.gcCPU-p0.gcCPU, (p1.cpu - p0.cpu).Seconds())
	o.metrics["loadgen.late_p50_ms"] = ms(t.lateP50)
	o.metrics["loadgen.late_max_ms"] = ms(t.lateMax)

	rp, err := env.replay(ctx, picks[:min(replayOps, len(picks))], disk)
	if err != nil {
		return nil, err
	}
	fmt.Printf("phase replay: attempted=%d failed=%d\n", rp.attempted, rp.failed)
	o.attempted += rp.attempted
	o.failed += rp.failed
	o.correct = o.correct && rp.failed == 0
	for k, v := range rp.metrics {
		o.metrics[k] = v
	}
	o.metrics["server.overhead_ms"] = ms(t.p50) - rp.layerP50Ms
	return o, nil
}

// replayResult is the per-layer breakdown of replayed requests.
type replayResult struct {
	attempted, failed int
	layerP50Ms        float64 // median over requests of the summed layer times
	metrics           map[string]float64
}

// replay sends the request sequence through the calls the evaluate handler
// makes, in order, against the server's own cache, timing each: decode,
// workload build, config render, cache run per rep, marshal. The key hash
// and the disk read are timed again on the side, since Run performs them.
func (e *evalEnv) replay(ctx context.Context, picks []int, disk bool) (*replayResult, error) {
	spec := cluster.Default()
	tree := procfs.New(params.Lustre())
	platName := e.srv.Platform().Name()
	var (
		decode, catalog, render, key, read, marshal, hit, diskHit time.Duration
		catAlloc                                                  uint64
		hits, diskHits, reads                                     int
		sums                                                      []float64
	)
	r := &replayResult{attempted: len(picks)}
	for _, pick := range picks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var req server.EvaluateRequest
		dec := json.NewDecoder(bytes.NewReader(e.specs[pick]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("replay: decode: %w", err)
		}
		dDecode := time.Since(t0)

		a0 := totalAlloc()
		t0 = time.Now()
		w, err := workload.Catalog(req.Workload, spec.TotalRanks(), evalScale)
		dCatalog := time.Since(t0)
		catAlloc += totalAlloc() - a0
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}

		t0 = time.Now()
		tree.SetDefaults()
		if err := tree.Apply(params.Config(req.Config)); err != nil {
			return nil, fmt.Errorf("replay: render: %w", err)
		}
		snap := tree.Snapshot()
		dRender := time.Since(t0)

		walls := make([]float64, req.Reps)
		var dRun time.Duration
		for i := range walls {
			rs := platform.RunSpec{Spec: spec, Workload: w, Config: snap, Seed: req.Seed + int64(i)*101}
			before := e.cache.Stats()
			t0 = time.Now()
			res, err := e.cache.Run(ctx, rs)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("replay: run: %w", err)
			}
			dRun += d
			after := e.cache.Stats()
			switch {
			case after.Hits > before.Hits:
				hits++
				hit += d
			case after.DiskHits > before.DiskHits:
				diskHits++
				diskHit += d
			}
			walls[i] = res.WallTime
		}

		sum := stats.Summarize(walls)
		t0 = time.Now()
		data, err := json.Marshal(server.EvaluateResponse{
			Workload: req.Workload, Reps: req.Reps, Seed: req.Seed, Scale: evalScale,
			MeanSeconds: sum.Mean, CI90Seconds: sum.CI90, WallsSeconds: walls, Platform: platName,
		})
		dMarshal := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("replay: marshal: %w", err)
		}
		if !bytes.Equal(append(data, '\n'), e.golden[pick]) {
			r.failed++
		}

		// The digest memo is keyed by workload pointer, so a shallow copy
		// keys exactly as the handler's first touch of a fresh build does.
		wc := *w
		for i := range walls {
			rs := platform.RunSpec{Spec: spec, Workload: &wc, Config: snap, Seed: req.Seed + int64(i)*101}
			t0 = time.Now()
			k := rs.Key()
			key += time.Since(t0)
			if disk {
				t0 = time.Now()
				_, err := platform.ReadRecording(e.dir, k)
				read += time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("replay: read: %w", err)
				}
				reads++
			}
		}
		decode += dDecode
		catalog += dCatalog
		render += dRender
		marshal += dMarshal
		sums = append(sums, ms(dDecode+dCatalog+dRender+dRun+dMarshal))
	}
	n := float64(len(picks))
	r.layerP50Ms = median(sums)
	r.metrics = map[string]float64{
		"server.decode_us":          usPer(decode, n),
		"server.marshal_us":         usPer(marshal, n),
		"workload.catalog_ms":       ms(catalog) / n,
		"workload.catalog_alloc_mb": float64(catAlloc) / (1 << 20) / n,
		"procfs.render_us":          usPer(render, n),
		"platform.key_us":           usPer(key, n),
		"platform.read_us":          usPer(read, float64(reads)),
		"runcache.hit_us":           usPer(hit, float64(hits)),
		"runcache.disk_hit_us":      usPer(diskHit, float64(diskHits)),
	}
	return r, nil
}
