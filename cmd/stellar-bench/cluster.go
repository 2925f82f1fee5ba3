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
	"os/exec"
	"strings"
	"syscall"
	"time"

	"stellar/internal/experiments"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/server"
)

// This file is the multi-process cluster bench: -cluster-requests spawns
// N real stellar-serve processes (re-execing this binary with -serve-node),
// peers them over a shared -cache-dir cold tier, and measures the fleet the
// way an operator would deploy it — duplicate requests fanned across every
// node, then a node restart against the shared directory. Two records land
// in -json: pass 1 (cold fleet) and pass 2 (after restarting node 0), each
// carrying aggregate cache and peering counters summed over every node's
// /v1/stats.

// runServeNode is the child side of the cluster bench: one real serving
// process on a fixed address, peered with the rest of the fleet, persisting
// to the shared cache directory. It runs until SIGTERM (the parent's stop
// signal) and then shuts down gracefully so in-flight forwards complete.
func runServeNode(ctx context.Context, addr, peersCSV, cacheDir string, scale float64, reps int, seed int64) error {
	srv, err := server.New(server.Options{
		Scale: scale, Seed: seed, Reps: reps,
		Workers: 4, Backlog: 64,
		Cache: runcache.NewWithOptions(platform.Simulator{}, runcache.Options{Dir: cacheDir}),
		Peers: splitList(peersCSV), Self: addr,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(sctx)
}

func splitList(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// nodeProc is one spawned serve process in the bench fleet.
type nodeProc struct {
	addr string
	cmd  *exec.Cmd
}

// stop SIGTERMs the child and waits for its graceful exit, freeing its
// address for a restart.
func (p *nodeProc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	p.cmd.Wait()
}

// clusterPass measures the distributed serving tier end to end. It returns
// two records: the cold fleet (every simulation runs exactly once
// cluster-wide, duplicates forwarded or coalesced) and the restarted fleet
// (node 0 replaced, warm-starting from the shared cache directory with zero
// new misses). Any contract violation — non-identical response bodies,
// unexpected miss counts — is an error, so the CI smoke inherits the
// assertions by just running the pass.
func clusterPass(ctx context.Context, cfg experiments.Config, n, nodes int) ([]benchRecord, error) {
	cfg = cfg.Defaults()
	if nodes < 2 {
		nodes = 3
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cacheDir, err := os.MkdirTemp("", "stellar-cluster-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)

	// Reserve one ephemeral port per node, then free them for the children.
	// The children must know every peer's address up front, so the ports
	// have to exist before any process starts.
	addrs := make([]string, nodes)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	peersCSV := strings.Join(addrs, ",")

	spawn := func(i int) (*nodeProc, error) {
		cmd := exec.Command(exe,
			"-serve-node", addrs[i],
			"-node-peers", peersCSV,
			"-node-cache-dir", cacheDir,
			"-scale", fmt.Sprint(cfg.Scale),
			"-reps", fmt.Sprint(cfg.Reps),
			"-seed", fmt.Sprint(cfg.Seed),
		)
		// Children log to stderr so the bench's stdout stays the record of
		// the measurement.
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		p := &nodeProc{addr: addrs[i], cmd: cmd}
		if err := waitHealthy(ctx, addrs[i]); err != nil {
			p.stop()
			return nil, fmt.Errorf("node %s never became healthy: %w", addrs[i], err)
		}
		return p, nil
	}

	procs := make([]*nodeProc, nodes)
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	for i := range procs {
		if procs[i], err = spawn(i); err != nil {
			return nil, err
		}
	}

	body := fmt.Sprintf(`{"workload":"IOR_16M","reps":%d,"seed":%d}`, cfg.Reps, cfg.Seed)
	fire := func() (float64, []byte, error) {
		bodies := make([][]byte, n)
		t0 := time.Now()
		err := pool.Map(ctx, cfg.Parallel, n, func(ctx context.Context, i int) error {
			url := "http://" + addrs[i%nodes] + "/v1/evaluate"
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
			if err != nil {
				return err
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("request %d to %s: HTTP %d: %s", i, addrs[i%nodes], resp.StatusCode, data)
			}
			bodies[i] = data
			return nil
		})
		if err != nil {
			return 0, nil, err
		}
		elapsed := time.Since(t0).Seconds()
		for i := 1; i < n; i++ {
			if !bytes.Equal(bodies[0], bodies[i]) {
				return 0, nil, fmt.Errorf("response %d differs across the fleet:\n%s\nvs\n%s", i, bodies[i], bodies[0])
			}
		}
		return elapsed, bodies[0], nil
	}

	record := func(pass int, elapsed float64, delta fleetStats) benchRecord {
		cache := delta.cache
		return benchRecord{
			Experiment: "cluster", Pass: pass, Seconds: elapsed,
			Platform: delta.platform, Cache: &cache,
			Requests: n, RPS: float64(n) / elapsed,
			Nodes:           nodes,
			Forwards:        delta.forwards,
			ForwardErrs:     delta.forwardErrs,
			CoalescedRemote: delta.coalesced,
			ServedForwards:  delta.served,
		}
	}

	// Pass 1: cold fleet. Exactly cfg.Reps distinct RunSpecs exist, so the
	// whole fleet must miss exactly cfg.Reps times no matter how many nodes
	// the duplicates landed on.
	before, err := sumStats(addrs)
	if err != nil {
		return nil, err
	}
	elapsed, coldBody, err := fire()
	if err != nil {
		return nil, err
	}
	after, err := sumStats(addrs)
	if err != nil {
		return nil, err
	}
	cold := after.delta(before)
	if got, want := cold.cache.Misses, uint64(cfg.Reps); got != want {
		return nil, fmt.Errorf("cold fleet missed %d times, want exactly %d (one per rep cluster-wide)", got, want)
	}
	if cold.forwards == 0 {
		return nil, fmt.Errorf("no forwards recorded across %d nodes — peering inactive", nodes)
	}
	recs := []benchRecord{record(1, elapsed, cold)}

	// Pass 2: restart node 0 against the shared cache directory. Its memory
	// cache is gone but the disk tier is not, so re-firing the same
	// requests must add zero misses fleet-wide: keys it owns come back as
	// disk hits, the rest stay memory hits on the survivors.
	procs[0].stop()
	if procs[0], err = spawn(0); err != nil {
		return nil, fmt.Errorf("restarting node 0: %w", err)
	}
	before, err = sumStats(addrs)
	if err != nil {
		return nil, err
	}
	elapsed, warmBody, err := fire()
	if err != nil {
		return nil, fmt.Errorf("after node 0 restart: %w", err)
	}
	after, err = sumStats(addrs)
	if err != nil {
		return nil, err
	}
	warm := after.delta(before)
	if warm.cache.Misses != 0 {
		return nil, fmt.Errorf("restarted fleet re-simulated %d runs, want 0 (shared cache dir must warm-start)", warm.cache.Misses)
	}
	if !bytes.Equal(coldBody, warmBody) {
		return nil, fmt.Errorf("restart changed the response body:\n%s\nvs\n%s", warmBody, coldBody)
	}
	return append(recs, record(2, elapsed, warm)), nil
}

// fleetStats is every node's /v1/stats summed: the cluster-wide view the
// single-process passes get for free from their one shared cache.
type fleetStats struct {
	platform    string
	cache       runcache.Stats
	forwards    uint64
	forwardErrs uint64
	coalesced   uint64
	served      uint64
}

func (s fleetStats) delta(before fleetStats) fleetStats {
	return fleetStats{
		platform:    s.platform,
		cache:       s.cache.Delta(before.cache),
		forwards:    s.forwards - before.forwards,
		forwardErrs: s.forwardErrs - before.forwardErrs,
		coalesced:   s.coalesced - before.coalesced,
		served:      s.served - before.served,
	}
}

func sumStats(addrs []string) (fleetStats, error) {
	var sum fleetStats
	for _, addr := range addrs {
		resp, err := http.Get("http://" + addr + "/v1/stats")
		if err != nil {
			return fleetStats{}, err
		}
		var st server.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fleetStats{}, err
		}
		sum.platform = st.Platform
		sum.cache.Hits += st.Cache.Hits
		sum.cache.Misses += st.Cache.Misses
		sum.cache.Coalesced += st.Cache.Coalesced
		sum.cache.DiskHits += st.Cache.DiskHits
		sum.cache.DiskErrs += st.Cache.DiskErrs
		sum.cache.Entries += st.Cache.Entries
		sum.cache.Capacity += st.Cache.Capacity
		sum.cache.Shards += st.Cache.Shards
		sum.cache.Persisted = st.Cache.Persisted
		if st.Cluster != nil {
			sum.forwards += st.Cluster.Forwards
			sum.forwardErrs += st.Cluster.ForwardErrs
			sum.coalesced += st.Cluster.CoalescedRemote
			sum.served += st.Cluster.ServedForwards
		}
	}
	return sum, nil
}

// waitHealthy polls a node's /v1/healthz until it answers or the deadline
// passes; spawned children need a beat before their listener is up.
func waitHealthy(ctx context.Context, addr string) error {
	deadline := time.Now().Add(15 * time.Second)
	url := "http://" + addr + "/v1/healthz"
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("HTTP %s", http.StatusText(http.StatusServiceUnavailable))
			}
			return err
		}
		time.Sleep(25 * time.Millisecond)
	}
}
