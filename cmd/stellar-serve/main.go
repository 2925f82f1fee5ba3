// Command stellar-serve exposes evaluation and figure regeneration as a
// long-lived HTTP JSON service over one process-wide shared run cache, so
// concurrent clients requesting the same (workload, configuration, seed)
// triple trigger exactly one simulation.
//
// Usage:
//
//	stellar-serve                          # serve the simulator on :8351
//	stellar-serve -addr :9000 -workers 8   # more concurrent jobs
//	stellar-serve -cache-dir cachedir      # persist runs; warm-start on restart
//	stellar-serve -platform replay -record-dir runs
//	                                       # serve recorded runs, no simulation;
//	                                       # runs is the cache dir (no -cache-dir)
//	stellar-serve -self h1:8351 -peers h1:8351,h2:8351,h3:8351 -cache-dir /shared
//	                                       # join a fleet: RunSpec keys rendezvous-
//	                                       # hash to one owner, duplicates anywhere
//	                                       # run exactly one simulation cluster-wide
//
// Example session:
//
//	curl -s localhost:8351/v1/evaluate -d '{"workload":"IOR_16M","reps":8,"seed":99}'
//	curl -s localhost:8351/v1/evaluate -d '{"workload":"IOR_16M","reps":8,"seed":99,
//	       "faults":{"seed":42,"severity":0.6}}'
//	                                       # same body under injected OST/MDS faults;
//	                                       # deterministic, cached under its own key
//	curl -s localhost:8351/v1/sweeps -d '{"workload":"IOR_16M","reps":2,
//	       "grid":{"osc.max_pages_per_rpc":[256,512,1024]}}'
//	curl -s localhost:8351/v1/tune -d '{"workload":"IOR_16M","candidates":8,
//	       "objective":{"kind":"robust"},"faults":{"seed":42,"severity":0.6}}'
//	                                       # robustness search: candidates scored
//	                                       # across clean + faulted cluster variants
//	curl -s -X POST localhost:8351/v1/figures/fig8
//	curl -s localhost:8351/v1/jobs/job-2
//	curl -s localhost:8351/v1/stats
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight requests get
// their contexts cancelled (aborting simulations mid-run), asynchronous
// jobs are cancelled, and the job queue drains before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"stellar/internal/cli"
	"stellar/internal/pool"
	"stellar/internal/server"
	"stellar/internal/workload"
)

// serveConfig carries the parsed flags; split from main so the end-to-end
// smoke test can drive the exact serving path on an ephemeral port.
type serveConfig struct {
	addr        string
	workers     int
	backlog     int
	reps        int
	scale       float64
	seed        int64
	parallel    int
	pprof       bool
	peers       string // comma-separated fleet membership (host:port each)
	self        string // this node's advertised host:port within -peers
	tenantQuota int
	pf          *cli.PlatformFlags
}

func main() {
	cfg := serveConfig{}
	flag.StringVar(&cfg.addr, "addr", ":8351", "listen address")
	flag.IntVar(&cfg.workers, "workers", pool.Default(), "concurrently executing jobs")
	flag.IntVar(&cfg.backlog, "backlog", 64, "jobs allowed to wait for a worker before requests get 429")
	flag.IntVar(&cfg.reps, "reps", 8, "default repetitions for requests that omit them")
	flag.Float64Var(&cfg.scale, "scale", workload.DefaultScale, "workload scale factor (1.0 = paper size)")
	flag.Int64Var(&cfg.seed, "seed", 7, "default seed base for requests that omit one")
	flag.IntVar(&cfg.parallel, "parallel", 1, "one budget shared by all jobs for their repetitions and figure arms (1 = serial)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ for live profiling")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated fleet membership (host:port per node) enabling cache peering; empty = single node")
	flag.StringVar(&cfg.self, "self", "", "this node's advertised host:port within -peers (required with -peers; must be dialable by the other nodes)")
	flag.IntVar(&cfg.tenantQuota, "tenant-quota", 0, "max queued jobs per X-Stellar-Tenant (0 = only the shared backlog bounds)")
	cfg.pf = cli.RegisterPlatformFlags()
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := serve(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "stellar-serve:", err)
		os.Exit(1)
	}
}

// serve runs the server until ctx is cancelled. onReady, when non-nil, is
// called with the bound address once the listener is up.
func serve(ctx context.Context, cfg serveConfig, onReady func(addr string)) error {
	// The service exists to share one cache across callers, so -cache is
	// implied: the flags always stack one over the selected backend,
	// honouring -cache-size, -cache-shards, and -cache-dir, so
	// `stellar-serve -cache-dir d` warm-starts from d's recorded runs after
	// a restart.
	*cfg.pf.Cache = true
	_, cache, err := cfg.pf.Build()
	if err != nil {
		return err
	}
	srv, err := server.New(server.Options{
		Cache:       cache,
		Scale:       cfg.scale,
		Seed:        cfg.seed,
		Reps:        cfg.reps,
		Workers:     cfg.workers,
		Backlog:     cfg.backlog,
		Parallel:    cfg.parallel,
		Pprof:       cfg.pprof,
		Peers:       cli.SplitList(cfg.peers),
		Self:        cfg.self,
		TenantQuota: cfg.tenantQuota,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	log.Printf("stellar-serve: listening on %s [platform %s, %d workers, backlog %d, scale %g]",
		ln.Addr(), srv.Platform().Name(), cfg.workers, cfg.backlog, cfg.scale)
	if cfg.self != "" {
		log.Printf("stellar-serve: cache peering as %s across %q", cfg.self, cfg.peers)
	}
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	defer context.AfterFunc(ctx, func() { log.Printf("stellar-serve: shutting down") })()
	return srv.Serve(ctx, ln)
}
