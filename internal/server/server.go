// Package server exposes evaluation and figure-regeneration as a long-lived
// tuning-as-a-service HTTP JSON API over the platform abstraction. Every
// CLI entry point so far has been one-shot: each invocation rebuilds its
// engines and throws the run cache away on exit. The server instead routes
// all simulator work through one process-wide shared runcache.Cache, so
// concurrent clients requesting the same (workload, configuration, seed)
// triple trigger exactly one simulation — the singleflight table coalesces
// the in-flight ones, the LRU serves the rest — and results are
// content-addressed and re-servable for the life of the process.
//
// Work is admitted through a bounded job queue (internal/pool.Queue).
// Every measurement — an evaluate, a sweep cell, a tune candidate — goes
// through one function, measure: one queue submit (fail fast for evaluate,
// block for the batch routes), one core.Engine.Evaluate under the request
// context, so a client disconnect cancels the in-flight simulation all the
// way down into the discrete-event loop, and one panic guard. Figure
// regenerations run asynchronously as jobs that are polled via GET
// /v1/jobs/{id} and cancelled via DELETE. Sweeps and tune searches open
// their NDJSON stream through one opener (openStream) and stream per-cell
// or per-round results, with partial progress on cancel.
//
// Endpoints:
//
//	POST   /v1/evaluate     measure a configuration (synchronous)
//	POST   /v1/sweeps       measure a parameter grid (streamed NDJSON)
//	POST   /v1/tune         adaptive tuning search (streamed NDJSON rounds)
//	POST   /v1/figures/{id} submit a figure/sweep regeneration job (202)
//	GET    /v1/jobs         list retained jobs (?kind= filters)
//	GET    /v1/jobs/{id}    poll one job's status and result
//	DELETE /v1/jobs/{id}    cancel a queued or running job
//	GET    /v1/stats        cache counters, queue depth, cluster gauges, job tallies
//	GET    /v1/version      build info and API revision
//	GET    /v1/healthz      liveness probe
//	POST   /internal/v1/run fleet-internal forwarded run (peering only)
//
// Errors are structured: every non-2xx body is {"error": {"code",
// "message", "details"}} with a machine-readable code (see errors.go);
// 429s carry Retry-After.
//
// With -peers/-self configured, the server joins a fleet: each RunSpec key
// has one rendezvous-hash owner (internal/cluster/peering), non-owner
// nodes forward runs to the owner's /internal/v1/run, and admission is
// tenant-aware via the X-Stellar-Tenant header.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/cluster/peering"
	"stellar/internal/core"
	"stellar/internal/experiments"
	"stellar/internal/llm/simllm"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/stats"
	"stellar/internal/workload"
)

// maxRequestReps bounds the repetitions one request may ask for; beyond it
// a request is rejected with 400 rather than occupying a worker for an
// unbounded measurement.
const maxRequestReps = 64

// Options configures a Server. The zero value serves the live simulator at
// the default scale with one worker per core.
type Options struct {
	// Cache is the process-wide run cache to serve from, built over the
	// measurement substrate (the simulator, or replay's NoRecording) with
	// whatever capacity, shards and persistence directory the caller
	// wants. Nil means runcache.New(platform.Simulator{}, 0): the live
	// simulator under a default in-memory cache.
	Cache *runcache.Cache

	Spec  cluster.Spec // zero value = cluster.Default()
	Scale float64      // workload scale (0 = workload.DefaultScale)
	Seed  int64        // default seed base for requests that omit one (0 = 7)
	Reps  int          // default repetitions for requests that omit them (0 = 8)

	// Workers bounds concurrently executing jobs (0 = one per core);
	// Backlog bounds jobs waiting for a worker (0 = 64; beyond it requests
	// fail fast with 429). Parallel sizes the one pool.Budget every running
	// job shares (0 = 1, serial): at most Workers+Parallel-1 simulations.
	Workers  int
	Backlog  int
	Parallel int

	// MaxSweepCells bounds how many grid cells one POST /v1/sweeps request
	// may expand to (0 = 1024); beyond it the request is rejected with 400
	// before any cell runs.
	MaxSweepCells int

	// MaxTuneCandidates bounds the candidate pool one POST /v1/tune search
	// may sample (0 = 64); beyond it the request is rejected with 400
	// before any evaluation runs.
	MaxTuneCandidates int

	// Peers is the full fleet membership for cache peering: every node's
	// advertised host:port (this node's entry included — it is added if
	// absent). Empty disables peering and the server runs single-node.
	// Self is this node's own advertised host:port; required when Peers is
	// non-empty, and it must be the address remote nodes can actually dial
	// back (not the listen wildcard).
	Peers []string
	Self  string

	// TenantQuota bounds how many queued jobs any one tenant (the
	// X-Stellar-Tenant request header; absent means the "" tenant) may hold
	// at a time. 0 means no per-tenant bound beyond the shared Backlog.
	// Dispatch is round-robin across tenants either way.
	TenantQuota int

	// Pprof mounts net/http/pprof under /debug/pprof/ on the handler, so
	// `go tool pprof http://host/debug/pprof/profile` can profile the
	// serving process under live load — the measure-first discipline the
	// kernel optimization used, available in production. Off by default:
	// profiles expose internals, so exposure is an operator decision
	// (stellar-serve -pprof).
	Pprof bool
}

func (o Options) withDefaults() Options {
	if o.Spec.ClientNodes == 0 {
		o.Spec = cluster.Default()
	}
	if o.Scale == 0 {
		o.Scale = workload.DefaultScale
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.Reps == 0 {
		o.Reps = 8
	}
	if o.Workers == 0 {
		o.Workers = pool.Default()
	}
	if o.Backlog == 0 {
		o.Backlog = 64
	}
	if o.MaxSweepCells == 0 {
		o.MaxSweepCells = 1024
	}
	if o.MaxTuneCandidates == 0 {
		o.MaxTuneCandidates = 64
	}
	return o
}

// Server is the tuning-as-a-service state: one shared cache-backed
// platform, one engine, one bounded job queue, and the job registry.
type Server struct {
	opts   Options
	cache  *runcache.Cache
	plat   platform.Platform // what the engine runs on: the cache, or the fleet over it
	fleet  *peering.Fleet    // nil when peering is not configured
	eng    *core.Engine
	queue  *pool.Queue
	budget *pool.Budget // Parallel; replaces any budget the Serve ctx carries
	jobs   *jobStore
	start  time.Time

	// baseCtx parents every asynchronous job, so Close cancels them all;
	// synchronous evaluations are parented by their request contexts
	// instead, which is what makes a client disconnect cancel the run.
	baseCtx context.Context
	stop    context.CancelFunc
}

// New builds a server. Call Close when done to cancel outstanding jobs and
// drain the queue. The server owns the process-lifetime root that parents
// asynchronous jobs; request contexts parent synchronous work instead.
// Construction fails only on invalid peering configuration (Peers without a
// usable Self).
//
//stellar:allow-background
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	cache := opts.Cache
	if cache == nil {
		cache = runcache.New(platform.Simulator{}, 0)
	}
	// The fleet interposes between the engine and the node-local cache:
	// owned keys run here, the rest forward to their owners. /v1/stats and
	// warm-start still read the local cache directly.
	plat := platform.Platform(cache)
	var fleet *peering.Fleet
	if len(opts.Peers) > 0 {
		f, err := peering.New(opts.Self, opts.Peers, cache)
		if err != nil {
			return nil, err
		}
		fleet, plat = f, f
	}
	eng := core.New(simllm.New(simllm.GPT4o), core.Options{
		Spec:          opts.Spec,
		TuningModel:   simllm.Claude37,
		AnalysisModel: simllm.GPT4o,
		ExtractModel:  simllm.GPT4o,
		Scale:         opts.Scale,
		Seed:          opts.Seed,
		Platform:      plat,
	})
	ctx, stop := context.WithCancel(context.Background())
	return &Server{
		opts:    opts,
		cache:   cache,
		plat:    plat,
		fleet:   fleet,
		eng:     eng,
		queue:   pool.NewQueue(opts.Workers, opts.Backlog, opts.TenantQuota),
		budget:  pool.NewBudget(opts.Parallel),
		jobs:    newJobStore(),
		start:   time.Now(),
		baseCtx: ctx,
		stop:    stop,
	}, nil
}

// Platform returns the measurement stack requests execute on: the local
// cache, or the peering fleet wrapped over it.
func (s *Server) Platform() platform.Platform { return s.plat }

// Close cancels all asynchronous jobs and waits for the queue to drain.
func (s *Server) Close() {
	s.stop()
	s.queue.Close()
}

// shutdownGrace bounds how long Serve waits for in-flight handlers to
// return once its context is cancelled.
const shutdownGrace = 10 * time.Second

// Serve answers requests on ln until ctx is cancelled, then shuts down
// gracefully. Request contexts derive from ctx, so cancelling it aborts
// in-flight evaluations mid-simulation and Shutdown drains promptly; it
// waits up to shutdownGrace for the handlers to return. This is the one
// serve loop behind stellar-serve and every stellar-bench server, the
// in-process ones and the cluster nodes alike. The caller keeps owning s
// and closes it after Serve returns.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("POST /v1/tune", s.handleTune)
	mux.HandleFunc("POST /v1/figures/{id}", s.handleFigure)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST "+peering.InternalRunPath, s.handleInternalRun)
	if s.opts.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// ----------------------------------------------------------------------
// POST /v1/evaluate
// ----------------------------------------------------------------------

// EvaluateRequest measures one configuration on one workload. Omitted reps
// and seed fall back to the server defaults; an omitted config measures the
// platform defaults. Faults, when present, runs every repetition under the
// given fault plan — the same plan and seed reproduce byte-identical
// responses, and faulted runs are cached under distinct keys from clean
// ones.
type EvaluateRequest struct {
	Workload string            `json:"workload"`
	Config   map[string]int64  `json:"config,omitempty"`
	Reps     int               `json:"reps,omitempty"`
	Seed     int64             `json:"seed,omitempty"`
	Faults   *lustre.FaultPlan `json:"faults,omitempty"`
}

// EvaluateResponse is the measurement summary plus the raw per-repetition
// series. Field order is fixed, so identical requests serialize to
// byte-identical bodies — the property the concurrency tests pin down.
// The fault plan is echoed only when non-zero, so clean responses stay
// byte-identical to the pre-fault wire format.
type EvaluateResponse struct {
	Workload     string            `json:"workload"`
	Reps         int               `json:"reps"`
	Seed         int64             `json:"seed"`
	Scale        float64           `json:"scale"`
	MeanSeconds  float64           `json:"mean_s"`
	CI90Seconds  float64           `json:"ci90_s"`
	WallsSeconds []float64         `json:"walls_s"`
	Platform     string            `json:"platform"`
	Faults       *lustre.FaultPlan `json:"faults,omitempty"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "missing workload")
		return
	}
	reps := req.Reps
	if reps == 0 {
		reps = s.opts.Reps
	}
	if reps < 1 || reps > maxRequestReps {
		writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
			map[string]any{"field": "reps", "max": maxRequestReps},
			"reps must be in [1, %d], got %d", maxRequestReps, reps)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.opts.Seed
	}
	cfg := params.Config{}
	for k, v := range req.Config {
		if !s.checkParam(w, k) {
			return
		}
		cfg[k] = v
	}
	var faults lustre.FaultPlan
	if req.Faults != nil {
		if err := req.Faults.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidFaultPlan, "%v", err)
			return
		}
		faults = *req.Faults
	}

	job := s.jobs.create("evaluate", req.Workload)
	// The run context descends from the request (client disconnect cancels
	// it mid-simulation) but also carries its own cancel so DELETE
	// /v1/jobs/{id} works on evaluate jobs too.
	rctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	job.setCancel(cancel)
	// Fail fast: a saturated queue answers 429 instead of parking the
	// handler. The job turns running only once a worker picks it up.
	walls, sum, err := s.measure(rctx, tenantOf(r), pool.FailFast,
		core.EvalRequest{Workload: req.Workload, Config: cfg, Reps: reps, SeedBase: seed, Faults: &faults}, job.start)
	if err != nil {
		job.fail(err, nil)
		writeErrorBody(w, errStatus(err), *errorBodyFor(err))
		return
	}
	resp := EvaluateResponse{
		Workload:     req.Workload,
		Reps:         reps,
		Seed:         seed,
		Scale:        s.opts.Scale,
		MeanSeconds:  sum.Mean,
		CI90Seconds:  sum.CI90,
		WallsSeconds: walls,
		Platform:     s.plat.Name(),
	}
	if !faults.IsZero() {
		resp.Faults = &faults
	}
	data, err := json.Marshal(resp)
	if err != nil {
		job.fail(err, nil)
		writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	job.finish(data, nil)
	writeRaw(w, http.StatusOK, data)
}

// measure is the serving tier's one admission path for a measurement
// (step 4 of the paper's loop): evaluate, sweep cells and tune candidates
// all come through here. It admits req on the job queue under tenant in
// the given mode, waits for the worker to finish, and returns the
// evaluation's series and summary. A request cancelled (DELETE or client
// disconnect) while still waiting for a worker returns its context error
// without starting the measurement; started, when non-nil, runs on the
// worker just before the measurement does. A panic in the evaluation costs
// this measurement, not the process: it is returned as an error.
//
// Errors are the queue's admission errors (pool.ErrQueueFull,
// pool.ErrQueueClosed, or ctx.Err() for a Block caller that gave up while
// parked) or the evaluation's own.
func (s *Server) measure(ctx context.Context, tenant string, mode pool.Mode, req core.EvalRequest, started func()) ([]float64, stats.Summary, error) {
	var (
		walls  []float64
		sum    stats.Summary
		runErr error
	)
	done, err := s.queue.Submit(ctx, tenant, mode, func(ctx context.Context) {
		if runErr = ctx.Err(); runErr != nil {
			return
		}
		if started != nil {
			started()
		}
		defer func() {
			if r := recover(); r != nil {
				runErr = fmt.Errorf("evaluation panicked: %v", r)
			}
		}()
		walls, sum, runErr = s.eng.Evaluate(pool.WithBudget(ctx, s.budget), req)
	})
	if err != nil {
		return nil, stats.Summary{}, err
	}
	// The closure writes walls, sum and runErr; done publishes them.
	<-done
	return walls, sum, runErr
}

// ----------------------------------------------------------------------
// POST /v1/figures/{id}
// ----------------------------------------------------------------------

// FigureRequest optionally overrides the experiment protocol for one job.
type FigureRequest struct {
	Reps  int     `json:"reps,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
}

// FigureResult is the payload stored on a completed figure job.
type FigureResult struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !experiments.Valid(id) {
		writeErrorDetails(w, http.StatusNotFound, CodeNotFound,
			map[string]any{"known": experiments.IDs()},
			"unknown experiment %q (known: %v)", id, experiments.IDs())
		return
	}
	var req FigureRequest
	if r.ContentLength != 0 {
		if !decodeBody(w, r, &req) {
			return
		}
	}
	// Overrides get the same admission checks as evaluate: a queue worker
	// must never be handed values that crash or pin it.
	if req.Reps < 0 || req.Reps > maxRequestReps {
		writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
			map[string]any{"field": "reps", "max": maxRequestReps},
			"reps must be in [1, %d], got %d", maxRequestReps, req.Reps)
		return
	}
	if req.Scale < 0 || req.Scale > 1.0 {
		writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
			map[string]any{"field": "scale"},
			"scale must be in (0, 1.0], got %g", req.Scale)
		return
	}
	cfg := experiments.Config{
		Spec:     s.opts.Spec,
		Scale:    s.opts.Scale,
		Reps:     s.opts.Reps,
		Seed:     s.opts.Seed,
		Platform: s.cache,
	}
	if req.Reps != 0 {
		cfg.Reps = req.Reps
	}
	if req.Scale != 0 {
		cfg.Scale = req.Scale
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}

	job := s.jobs.create("figure", id)
	jctx, cancel := context.WithCancel(s.baseCtx)
	job.setCancel(cancel)
	before := s.cache.Stats()
	_, err := s.queue.Submit(jctx, tenantOf(r), pool.FailFast, func(ctx context.Context) {
		defer cancel()
		// Cancelled while still queued (DELETE before a worker was free, or
		// server shutdown): the job must report cancelled promptly and its
		// experiment must never start.
		if err := ctx.Err(); err != nil {
			job.fail(err, nil)
			return
		}
		job.start()
		out, runErr := func() (out string, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("experiment panicked: %v", r)
				}
			}()
			return experiments.Run(pool.WithBudget(ctx, s.budget), id, cfg)
		}()
		// The delta is attributed to this job; with concurrent jobs on one
		// shared cache it is approximate, which /v1/stats documents.
		delta := s.cache.Stats().Delta(before)
		if runErr != nil {
			job.fail(runErr, &delta)
			return
		}
		data, mErr := json.Marshal(FigureResult{ID: id, Text: out})
		if mErr != nil {
			job.fail(mErr, &delta)
			return
		}
		job.finish(data, &delta)
	})
	if err != nil {
		cancel()
		job.fail(err, nil)
		writeErrorBody(w, errStatus(err), *errorBodyFor(err))
		return
	}
	writeJSON(w, http.StatusAccepted, job.view())
}

// ----------------------------------------------------------------------
// Jobs and stats
// ----------------------------------------------------------------------

// jobKinds is the closed set GET /v1/jobs?kind= accepts.
var jobKinds = map[string]bool{"evaluate": true, "figure": true, "sweep": true, "tune": true}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	kind := r.URL.Query().Get("kind")
	if kind != "" && !jobKinds[kind] {
		writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
			map[string]any{"field": "kind", "known": []string{"evaluate", "figure", "sweep", "tune"}},
			"unknown job kind %q", kind)
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.list(kind))
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.view())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if job.terminal() {
		writeJSON(w, http.StatusOK, job.view())
		return
	}
	job.requestCancel()
	writeJSON(w, http.StatusAccepted, job.view())
}

// QueueStats is the queue capacity snapshot in /v1/stats. Tenants reports
// per-tenant queued depth (absent when nothing waits); TenantQuota the
// per-tenant admission cap (absent when only the shared backlog bounds).
type QueueStats struct {
	Workers     int            `json:"workers"`
	Backlog     int            `json:"backlog"`
	Depth       int            `json:"depth"`   // jobs waiting for a worker
	Running     int            `json:"running"` // jobs currently executing
	TenantQuota int            `json:"tenant_quota,omitempty"`
	Tenants     map[string]int `json:"tenants,omitempty"`
}

// StatsResponse is the capacity-monitoring snapshot: run cache
// effectiveness counters (process lifetime), queue depth, cluster peering
// gauges (when configured), and job tallies. Cache and Cluster counters
// both support before/after Delta() accounting.
type StatsResponse struct {
	Platform      string            `json:"platform"`
	UptimeSeconds float64           `json:"uptime_s"`
	Cache         runcache.Stats    `json:"cache"`
	Queue         QueueStats        `json:"queue"`
	Cluster       *peering.Stats    `json:"cluster,omitempty"`
	Jobs          map[JobStatus]int `json:"jobs"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Platform:      s.plat.Name(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache:         s.cache.Stats(),
		Queue: QueueStats{
			Workers:     s.opts.Workers,
			Backlog:     s.opts.Backlog,
			Depth:       s.queue.Depth(),
			Running:     s.queue.Running(),
			TenantQuota: s.opts.TenantQuota,
			Tenants:     s.queue.Depths(),
		},
		Jobs: s.jobs.counts(),
	}
	if s.fleet != nil {
		st := s.fleet.Stats()
		resp.Cluster = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// openStream begins a streamed NDJSON job (sweep or tune) once its
// request has validated. A closed queue gets its 503 here, before any byte
// of the stream: once the 200 header is out a shutdown can only be
// reported in-band (shutdown is 503, never 429 — see pool.ErrQueueClosed).
// It then registers and starts a job of kind on target with total counted
// units, derives the job's context from the request (a client disconnect
// stops it) with its own cancel so DELETE /v1/jobs/{id} works, and sends
// the NDJSON response header. writeLine encodes one line and flushes it.
// A nil job means the 503 was written; otherwise the caller defers cancel.
func (s *Server) openStream(w http.ResponseWriter, r *http.Request, kind, target string, total int) (job *Job, ctx context.Context, cancel context.CancelFunc, writeLine func(any)) {
	if s.queue.Closed() {
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "%v", pool.ErrQueueClosed)
		return nil, nil, nil, nil
	}
	job = s.jobs.create(kind, target)
	job.setTotal(total)
	ctx, cancel = context.WithCancel(r.Context())
	job.setCancel(cancel)
	job.start()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	return job, ctx, cancel, func(v any) {
		enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// tenantOf extracts the requester's tenant for quota accounting and fair
// dispatch. An absent header is the "" tenant — all anonymous traffic
// shares one bucket, which is exactly the pre-tenant behavior.
func tenantOf(r *http.Request) string {
	return r.Header.Get("X-Stellar-Tenant")
}

// unknownWorkloadText mirrors workload.Catalog's unknown-family error for
// the handlers that pre-check names before building anything: typos get the
// nearest known family named in the 400 body.
func unknownWorkloadText(name string) string {
	if near := workload.Nearest(name); near != "" {
		return fmt.Sprintf("%v %q (closest known family: %q)", workload.ErrUnknown, name, near)
	}
	return fmt.Sprintf("%v %q", workload.ErrUnknown, name)
}

// decodeBody parses a JSON request body (1 MiB bound, unknown fields
// rejected), writing a 400 and returning false on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: data after the JSON value")
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	writeRaw(w, status, data)
}

func writeRaw(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)+1))
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}
