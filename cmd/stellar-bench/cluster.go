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

	"stellar/internal/cli"
	"stellar/internal/cluster/peering"
	"stellar/internal/experiments"
	"stellar/internal/runcache"
	"stellar/internal/server"
)

// This file is the multi-process cluster scenario: -cluster-requests
// spawns N real serve processes (re-execing this binary with -serve-node),
// peers them over a shared -cache-dir cold tier, and measures the fleet
// the way an operator would deploy it — duplicate requests fanned across
// every node, then a node restart against the shared directory. Two
// records land in -json: pass 1 (cold fleet) and pass 2 (after restarting
// node 0), each carrying cache and peering counters summed over every
// node's /v1/stats.

// serveClusterNode is the child side of the cluster scenario: one real
// serving process on addr, peered with the fleet and persisting to the
// -cache-dir the flags built cache over. It runs stellar-serve's serve
// loop until SIGTERM (the parent's stop signal), so in-flight forwards
// complete.
func serveClusterNode(ctx context.Context, cfg experiments.Config, cache *runcache.Cache, addr, peers string) error {
	srv, err := server.New(server.Options{
		Cache: cache,
		Scale: cfg.Scale, Seed: cfg.Seed, Reps: cfg.Reps,
		Workers: 4, Backlog: 64,
		Peers: cli.SplitList(peers), Self: addr,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return srv.Serve(ctx, ln)
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

// clusterPass measures the distributed serving tier end to end in two
// passes: the cold fleet (every simulation runs exactly once cluster-wide,
// duplicates forwarded or coalesced) and the restarted fleet (node 0
// replaced, warm-starting from the shared cache directory with zero new
// misses). Any contract violation — non-identical response bodies,
// unexpected miss counts — is an error, so the CI smoke inherits the
// assertions by just running the scenario.
func (b *bench) clusterPass(ctx context.Context, n int) error {
	nodes := b.nodes
	if nodes < 2 {
		nodes = 3
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cacheDir, err := os.MkdirTemp("", "stellar-cluster-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)

	// Reserve one ephemeral port per node, then free them for the children.
	// The children must know every peer's address up front, so the ports
	// have to exist before any process starts.
	addrs := make([]string, nodes)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	peers := strings.Join(addrs, ",")

	spawn := func(i int) (*nodeProc, error) {
		cmd := exec.Command(exe,
			"-serve-node", addrs[i],
			"-node-peers", peers,
			"-cache-dir", cacheDir,
			"-scale", fmt.Sprint(b.cfg.Scale),
			"-reps", fmt.Sprint(b.cfg.Reps),
			"-seed", fmt.Sprint(b.cfg.Seed),
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
			return err
		}
	}

	body := evaluateBody(b.cfg)
	url := func(i int) string { return "http://" + addrs[i%nodes] + "/v1/evaluate" }
	var coldBody []byte
	for pass := 1; pass <= 2; pass++ {
		if pass == 2 {
			// Restart node 0 against the shared cache directory. Its
			// memory cache is gone but the disk tier is not, so re-firing
			// the same requests must add zero misses fleet-wide: keys it
			// owns come back as disk hits, the rest stay memory hits on
			// the survivors.
			procs[0].stop()
			if procs[0], err = spawn(0); err != nil {
				return fmt.Errorf("restarting node 0: %w", err)
			}
		}
		before, err := sumStats(addrs)
		if err != nil {
			return err
		}
		m := startMeter(nil)
		got, err := postAll(ctx, n, url, body)
		if err != nil {
			return fmt.Errorf("pass %d: %w", pass, err)
		}
		rec := benchRecord{Experiment: "cluster", Pass: pass, Requests: n, Nodes: nodes}
		m.stop(&rec, n)
		after, err := sumStats(addrs)
		if err != nil {
			return err
		}
		d := after.delta(before)
		rec.Platform, rec.Cache = d.platform, &d.cache
		rec.Forwards, rec.ForwardErrs = d.cluster.Forwards, d.cluster.ForwardErrs
		rec.CoalescedRemote, rec.ServedForwards = d.cluster.CoalescedRemote, d.cluster.ServedForwards

		if pass == 1 {
			// Exactly cfg.Reps distinct RunSpecs exist, so the whole fleet
			// must miss exactly that often no matter how many nodes the
			// duplicates landed on.
			if d.cache.Misses != uint64(b.cfg.Reps) {
				return fmt.Errorf("cold fleet missed %d times, want exactly %d (one per rep cluster-wide)", d.cache.Misses, b.cfg.Reps)
			}
			if d.cluster.Forwards == 0 {
				return fmt.Errorf("no forwards recorded across %d nodes — peering inactive", nodes)
			}
			coldBody = got
		} else {
			if d.cache.Misses != 0 {
				return fmt.Errorf("restarted fleet re-simulated %d runs, want 0 (shared cache dir must warm-start)", d.cache.Misses)
			}
			if !bytes.Equal(coldBody, got) {
				return fmt.Errorf("restart changed the response body:\n%s\nvs\n%s", got, coldBody)
			}
		}
		b.emit(rec)
	}
	return nil
}

// fleetStats is every node's /v1/stats summed: the cluster-wide view the
// single-process passes get for free from their one shared cache.
type fleetStats struct {
	platform string
	cache    runcache.Stats
	cluster  peering.Stats
}

// add folds one node's stats into the fleet total. Every runcache and
// peering counter sums, and so do the size gauges; the fleet persists if
// any node does.
func (s *fleetStats) add(st server.StatsResponse) {
	s.platform = st.Platform
	c := &s.cache
	c.Hits += st.Cache.Hits
	c.Misses += st.Cache.Misses
	c.Coalesced += st.Cache.Coalesced
	c.Bypassed += st.Cache.Bypassed
	c.Evictions += st.Cache.Evictions
	c.DiskHits += st.Cache.DiskHits
	c.DiskErrs += st.Cache.DiskErrs
	c.Entries += st.Cache.Entries
	c.Capacity += st.Cache.Capacity
	c.Shards += st.Cache.Shards
	c.Persisted = c.Persisted || st.Cache.Persisted
	if p := st.Cluster; p != nil {
		s.cluster.Local += p.Local
		s.cluster.Forwards += p.Forwards
		s.cluster.ForwardErrs += p.ForwardErrs
		s.cluster.CoalescedRemote += p.CoalescedRemote
		s.cluster.ServedForwards += p.ServedForwards
	}
}

// delta is the fleet's activity since before, clamped the way each node's
// own Stats.Delta clamps it.
func (s fleetStats) delta(before fleetStats) fleetStats {
	return fleetStats{
		platform: s.platform,
		cache:    s.cache.Delta(before.cache),
		cluster:  s.cluster.Delta(before.cluster),
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
		sum.add(st)
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
