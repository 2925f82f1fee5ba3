package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"stellar/internal/experiments"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/server"
)

// httpPass is the body the served scenarios share: an in-process server
// over the bench's cache (a default one when the flags stacked none),
// sized for n — its backlog, sweep grid and tune pool — on a loopback
// port; then the metered drive, which issues the scenario's requests
// against base and returns how many units of work they completed, the
// numerator of the record's rate.
func (b *bench) httpPass(ctx context.Context, name string, n int, drive func(ctx context.Context, base string, rec *benchRecord) (int, error)) error {
	cache := b.cache
	if cache == nil {
		cache = runcache.New(b.cfg.Platform, 0)
	}
	srv, err := server.New(server.Options{
		Cache: cache,
		Scale: b.cfg.Scale, Seed: b.cfg.Seed, Reps: b.cfg.Reps,
		Workers: b.parallel, Parallel: 1,
		Backlog: n, MaxSweepCells: n, MaxTuneCandidates: n,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sctx, ln) }()
	defer func() {
		cancel()
		<-served
	}()

	rec := benchRecord{Experiment: name, Pass: 1, Platform: srv.Platform().Name(), Requests: n}
	m := startMeter(cache)
	units, err := drive(ctx, "http://"+ln.Addr().String(), &rec)
	if err != nil {
		return err
	}
	m.stop(&rec, units)
	b.emit(rec)
	return nil
}

// servePass measures tuning-as-a-service throughput: n identical evaluate
// requests, -parallel at a time. The first request pays the
// simulations; the rest exercise the shared run cache, so the rate
// reflects serving overhead at steady state.
func (b *bench) servePass(ctx context.Context, n int) error {
	body := evaluateBody(b.cfg)
	return b.httpPass(ctx, "serve", n, func(ctx context.Context, base string, _ *benchRecord) (int, error) {
		_, err := postAll(ctx, n, func(int) string { return base + "/v1/evaluate" }, body)
		return n, err
	})
}

// sweepPass measures the batch sweep API: one POST /v1/sweeps whose grid
// is n distinct values of one well-understood parameter, so every cell is
// a unique spec and the recorded miss count means what it says. (Values
// past the registry range are clamped at run time but still hash to
// distinct cache keys.) The cache delta carries the shard count and
// persistence counters: how much of a grid the sharded cache and the disk
// directory absorbed.
func (b *bench) sweepPass(ctx context.Context, n int) error {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprint(i + 1)
	}
	body := fmt.Sprintf(`{"workload":"IOR_16M","reps":%d,"seed":%d,"grid":{"osc.max_pages_per_rpc":[%s]}}`,
		b.cfg.Reps, b.cfg.Seed, strings.Join(vals, ","))
	return b.httpPass(ctx, "sweep", n, func(ctx context.Context, base string, _ *benchRecord) (int, error) {
		var footer server.SweepFooter
		if err := postStream(ctx, base+"/v1/sweeps", body, &footer); err != nil {
			return 0, err
		}
		if footer.Done != n {
			return 0, fmt.Errorf("sweep completed %d/%d cells (%d failed)", footer.Done, n, footer.Failed)
		}
		return n, nil
	})
}

// tunePass measures the adaptive tuning-search API: one POST /v1/tune
// over an n-candidate pool. The record carries the winning configuration
// and the search budget (its rate is evaluations per second), so two
// passes over the same -cache-dir demonstrate the determinism contract:
// the second reports zero misses and the byte-identical winner.
func (b *bench) tunePass(ctx context.Context, n int) error {
	body := fmt.Sprintf(`{"workload":"IOR_16M","candidates":%d,"max_reps":%d,"seed":%d}`,
		n, b.cfg.Reps, b.cfg.Seed)
	return b.httpPass(ctx, "tune", n, func(ctx context.Context, base string, rec *benchRecord) (int, error) {
		var footer server.TuneFooter
		if err := postStream(ctx, base+"/v1/tune", body, &footer); err != nil {
			return 0, err
		}
		if footer.Cancelled || footer.Error != "" {
			return 0, fmt.Errorf("search did not complete: cancelled=%v error=%q", footer.Cancelled, footer.Error)
		}
		rec.Winner, rec.Rounds = footer.Winner.Config, footer.Rounds
		rec.Evaluations, rec.Speedup = footer.Evaluations, footer.Speedup
		return footer.Evaluations, nil
	})
}

// evaluateBody is the one evaluate request the serve and cluster
// scenarios repeat: cfg.Reps distinct RunSpecs.
func evaluateBody(cfg experiments.Config) string {
	return fmt.Sprintf(`{"workload":"IOR_16M","reps":%d,"seed":%d}`, cfg.Reps, cfg.Seed)
}

// post sends body to url and returns the whole response body; any status
// but 200 is an error carrying it.
func post(ctx context.Context, url, body string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	return data, err
}

// postAll posts body to url(i) for each i in [0, n), as many at once as
// the ctx's budget allows, and returns the response they all share: identical requests answer
// byte-identically on any node and from any cache tier, so a difference
// is an error.
func postAll(ctx context.Context, n int, url func(i int) string, body string) ([]byte, error) {
	bodies := make([][]byte, n)
	err := pool.Map(ctx, n, func(ctx context.Context, i int) error {
		var err error
		bodies[i], err = post(ctx, url(i), body)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			return nil, fmt.Errorf("response %d from %s differs:\n%s\nvs\n%s", i, url(i), bodies[i], bodies[0])
		}
	}
	return bodies[0], nil
}

// postStream posts body to an NDJSON route, consumes the stream, and
// decodes its last line — the footer — into footer.
func postStream(ctx context.Context, url, body string, footer any) error {
	data, err := post(ctx, url, body)
	if err != nil {
		return err
	}
	data = bytes.TrimRight(data, "\n")
	if err := json.Unmarshal(data[bytes.LastIndexByte(data, '\n')+1:], footer); err != nil {
		return fmt.Errorf("parsing footer: %w", err)
	}
	return nil
}
