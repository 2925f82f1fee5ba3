package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"stellar/internal/core"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/search"
	"stellar/internal/stats"
	"stellar/internal/workload"
)

// TuneRequest starts an adaptive tuning search: the server samples a pool
// of candidate configurations and runs successive halving over them,
// driving every measurement through the shared run cache. Omitted knobs
// fall back to sensible defaults; max_reps defaults to the server's
// per-request rep default and is capped at maxRequestReps, as in evaluate.
// Faults runs the whole search under a fault plan; with the "robust"
// objective kind it is required, and each candidate is scored across the
// clean cluster plus fault_variants seed-derived variants of the plan
// (default 2, max 8) — the search then optimizes worst-case degraded
// throughput alongside healthy-cluster speed.
type TuneRequest struct {
	Workload      string                `json:"workload"`
	Space         []string              `json:"space,omitempty"`
	Candidates    int                   `json:"candidates,omitempty"`
	Eta           int                   `json:"eta,omitempty"`
	MinReps       int                   `json:"min_reps,omitempty"`
	MaxReps       int                   `json:"max_reps,omitempty"`
	Seed          int64                 `json:"seed,omitempty"`
	Objective     *search.ObjectiveSpec `json:"objective,omitempty"`
	Faults        *lustre.FaultPlan     `json:"faults,omitempty"`
	FaultVariants int                   `json:"fault_variants,omitempty"`
}

// TuneHeader is the first NDJSON line of a tune response: the fully
// resolved search the server is about to run, so a client can reproduce it
// exactly (the whole search is deterministic given these fields).
type TuneHeader struct {
	Job        string   `json:"job"`
	Workload   string   `json:"workload"`
	Objective  string   `json:"objective"`
	Space      []string `json:"space"` // resolved parameter list the pool samples over
	Candidates int      `json:"candidates"`
	Eta        int      `json:"eta"`
	MinReps    int      `json:"min_reps"`
	MaxReps    int      `json:"max_reps"`
	Seed       int64    `json:"seed"`
	Scale      float64  `json:"scale"`
	// Fault fields appear only on faulted searches, keeping clean headers
	// byte-identical to the pre-fault wire format.
	Faults        *lustre.FaultPlan `json:"faults,omitempty"`
	FaultVariants int               `json:"fault_variants,omitempty"`
}

// TuneRound is one streamed successive-halving round: the surviving
// candidates, the best configuration so far, and the cache activity the
// round triggered (hits grow as survivors re-request runs earlier rounds
// already paid for).
type TuneRound struct {
	search.Round
	Cache runcache.Stats `json:"cache"`
}

// TuneFooter is the last NDJSON line and the retained job result: the
// winner with its full evaluation series, the budget actually spent, and
// the cache activity attributed to the whole search.
type TuneFooter struct {
	Winner      search.Candidate `json:"winner"`
	DefaultMean float64          `json:"default_mean_s"`
	Speedup     float64          `json:"speedup"`
	Rounds      int              `json:"rounds"`
	Evaluations int              `json:"evaluations"`
	RepRuns     int              `json:"rep_runs"`
	Cancelled   bool             `json:"cancelled"`
	Error       string           `json:"error,omitempty"`
	Seconds     float64          `json:"seconds"`
	Cache       runcache.Stats   `json:"cache"`
}

// handleTune serves POST /v1/tune: validate and resolve the search, then
// stream one NDJSON line per completed halving round (header first, footer
// last). Every candidate evaluation is one Block-mode measure call, so a
// search shares workers fairly with everything else the server is doing
// and saturation backpressures the search instead of failing it. A client
// disconnect or DELETE /v1/jobs/{id} cancels the search; rounds already
// streamed are the partial progress. A server that is shutting down
// answers 503 after the body validates.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req TuneRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "missing workload")
		return
	}
	if !workload.Known(req.Workload) {
		writeUnknownWorkload(w, req.Workload)
		return
	}
	for _, name := range req.Space {
		if !s.checkParam(w, name) {
			return
		}
	}
	candidates := req.Candidates
	if candidates == 0 {
		candidates = 8
	}
	if candidates < 2 || candidates > s.opts.MaxTuneCandidates {
		writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
			map[string]any{"field": "candidates", "max": s.opts.MaxTuneCandidates},
			"candidates must be in [2, %d], got %d", s.opts.MaxTuneCandidates, candidates)
		return
	}
	if req.Eta < 0 || req.Eta == 1 {
		writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
			map[string]any{"field": "eta"}, "eta must be >= 2, got %d", req.Eta)
		return
	}
	maxReps := req.MaxReps
	if maxReps == 0 {
		maxReps = s.opts.Reps
	}
	if maxReps < 1 || maxReps > maxRequestReps {
		writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
			map[string]any{"field": "max_reps", "max": maxRequestReps},
			"max_reps must be in [1, %d], got %d", maxRequestReps, maxReps)
		return
	}
	if req.MinReps < 0 || req.MinReps > maxReps {
		writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
			map[string]any{"field": "min_reps", "max": maxReps},
			"min_reps must be in [1, %d], got %d", maxReps, req.MinReps)
		return
	}
	robust := req.Objective != nil && req.Objective.Kind == "robust"
	var faults lustre.FaultPlan
	if req.Faults != nil {
		if err := req.Faults.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidFaultPlan, "%v", err)
			return
		}
		faults = *req.Faults
	}
	variants := req.FaultVariants
	if robust {
		if req.Faults == nil || faults.IsZero() {
			writeError(w, http.StatusBadRequest, CodeInvalidFaultPlan,
				"the robust objective requires a non-empty fault plan (faults)")
			return
		}
		if variants == 0 {
			variants = 2
		}
		if variants < 1 || variants > 8 {
			writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
				map[string]any{"field": "fault_variants", "max": 8},
				"fault_variants must be in [1, 8], got %d", req.FaultVariants)
			return
		}
	} else if req.FaultVariants != 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "fault_variants requires the robust objective kind")
		return
	}
	var objective search.Objective
	if req.Objective != nil {
		spec := *req.Objective
		spec.Perturbations = variants
		var err error
		if objective, err = spec.Build(); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
			return
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.opts.Seed
	}
	opts := search.Options{
		Workload:   req.Workload,
		Space:      req.Space,
		Candidates: candidates,
		Eta:        req.Eta,
		MinReps:    req.MinReps,
		MaxReps:    maxReps,
		Seed:       seed,
		Parallel:   candidates, // queue workers are the real execution bound
		Objective:  objective,
		Registry:   s.eng.Registry(),
		Env: params.SystemEnv(
			int64(s.opts.Spec.MemoryMBPerNode), int64(s.opts.Spec.OSTCount), nil),
	}
	opts = opts.WithDefaults()

	tenant := tenantOf(r)
	job, rctx, cancel, writeLine := s.openStream(w, r, "tune", req.Workload, search.RoundsFor(opts))
	if job == nil {
		return
	}
	defer cancel()
	before := s.cache.Stats()
	last := before
	t0 := time.Now()
	hdr := TuneHeader{
		Job: job.id, Workload: opts.Workload, Objective: opts.Objective.Name(),
		Space: opts.Space, Candidates: opts.Candidates, Eta: opts.Eta,
		MinReps: opts.MinReps, MaxReps: opts.MaxReps,
		Seed: opts.Seed, Scale: s.opts.Scale,
	}
	if !faults.IsZero() {
		hdr.Faults = &faults
		hdr.FaultVariants = variants
	}
	writeLine(hdr)

	// Each candidate evaluation is one Block-mode measurement: the search's
	// per-round fan-out parks until workers free up, exactly like sweep
	// cells. Every measurement runs under the request's fault plan (the
	// zero plan is a healthy cluster).
	runEval := func(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64, plan lustre.FaultPlan) ([]float64, stats.Summary, error) {
		return s.measure(ctx, tenant, pool.Block,
			core.EvalRequest{Workload: wl, Config: cfg, Reps: reps, SeedBase: seedBase, Faults: &plan}, nil)
	}
	eval := func(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64) ([]float64, stats.Summary, error) {
		return runEval(ctx, wl, cfg, reps, seedBase, faults)
	}
	if robust {
		// Variant 0 is the clean cluster, 1 the requested plan, 2..K
		// seed-derived siblings; each candidate's series concatenates them
		// in that fixed order for the robust objective to score.
		plans := faults.Variants(variants)
		eval = search.PerturbedEval(variants, func(ctx context.Context, wl string, cfg params.Config, reps int, seedBase int64, v int) ([]float64, error) {
			walls, _, err := runEval(ctx, wl, cfg, reps, seedBase, plans[v])
			return walls, err
		})
	}

	res, runErr := search.Run(rctx, eval, opts, func(rd search.Round) {
		now := s.cache.Stats()
		writeLine(TuneRound{Round: rd, Cache: now.Delta(last)})
		last = now
		job.cellDone()
	})

	delta := s.cache.Stats().Delta(before)
	footer := TuneFooter{
		Cancelled: rctx.Err() != nil,
		Seconds:   time.Since(t0).Seconds(),
		Cache:     delta,
	}
	if runErr != nil && !footer.Cancelled {
		footer.Error = inBandError(runErr)
	}
	if res != nil {
		footer.Winner = res.Winner
		footer.DefaultMean = res.DefaultMean
		footer.Speedup = res.Speedup()
		footer.Rounds = len(res.Rounds)
		footer.Evaluations = res.Evaluations
		footer.RepRuns = res.RepRuns
	}
	// One marshal serves both the stream's footer line and the retained job
	// result, so polling the job re-serves exactly what was streamed.
	data, _ := json.Marshal(footer)
	writeLine(json.RawMessage(data))
	switch {
	case runErr != nil:
		job.fail(runErr, &delta)
	default:
		job.finish(data, &delta)
	}
}
