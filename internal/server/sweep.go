package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"stellar/internal/core"
	"stellar/internal/params"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/workload"
)

// SweepRequest measures a whole parameter grid in one request instead of
// one configuration per round-trip: the server expands the cross-product of
// Grid over Base and runs every cell through the shared run cache. Omitted
// reps and seed fall back to the server defaults, exactly like evaluate.
type SweepRequest struct {
	Workload string             `json:"workload"`
	Reps     int                `json:"reps,omitempty"`
	Seed     int64              `json:"seed,omitempty"`
	Base     map[string]int64   `json:"base,omitempty"`
	Grid     map[string][]int64 `json:"grid"`
}

// SweepHeader is the first NDJSON line of a sweep response: what the server
// expanded the request into, so clients know how many cell lines to expect.
type SweepHeader struct {
	Job      string  `json:"job"`
	Workload string  `json:"workload"`
	Cells    int     `json:"cells"`
	Reps     int     `json:"reps"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
}

// SweepCell is one streamed grid cell: its expanded configuration plus the
// measurement summary, or an error. Cells stream in completion order;
// Index identifies the cell within the deterministic expansion order.
type SweepCell struct {
	Index        int              `json:"index"`
	Config       map[string]int64 `json:"config"`
	MeanSeconds  float64          `json:"mean_s,omitempty"`
	CI90Seconds  float64          `json:"ci90_s,omitempty"`
	WallsSeconds []float64        `json:"walls_s,omitempty"`
	Error        string           `json:"error,omitempty"`
}

// SweepFooter is the last NDJSON line: how much of the grid completed, the
// cache activity attributed to the sweep, and whether it was cut short.
type SweepFooter struct {
	Done      int            `json:"done"`
	Failed    int            `json:"failed"`
	Cells     int            `json:"cells"`
	Cancelled bool           `json:"cancelled"`
	Seconds   float64        `json:"seconds"`
	Cache     runcache.Stats `json:"cache"`
}

// expandGrid builds the cross-product of grid over base in deterministic
// order: keys sorted, last key varying fastest (odometer order). Every cell
// gets its own config map so cells are independently serializable.
func expandGrid(base map[string]int64, grid map[string][]int64) []map[string]int64 {
	keys := make([]string, 0, len(grid))
	total := 1
	for k := range grid {
		keys = append(keys, k)
		total *= len(grid[k])
	}
	sort.Strings(keys)

	cells := make([]map[string]int64, 0, total)
	idx := make([]int, len(keys))
	for {
		cell := make(map[string]int64, len(base)+len(keys))
		for k, v := range base {
			cell[k] = v
		}
		for i, k := range keys {
			cell[k] = grid[k][idx[i]]
		}
		cells = append(cells, cell)
		// Advance the odometer, last key fastest.
		i := len(keys) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(grid[keys[i]]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return cells
		}
	}
}

// handleSweep serves POST /v1/sweeps: expand the grid, fan the cells
// through the job queue (each cell is one measure call sharing the
// process-wide cache), and stream one NDJSON line per completed cell. The
// response begins with a header line and ends with a footer line; a client
// disconnect or DELETE /v1/jobs/{id} stops dispatching new cells, and
// everything streamed before that is the partial progress. A server that is
// shutting down answers 503 after the body validates.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
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
	if len(req.Grid) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "missing grid")
		return
	}
	// Every grid and base parameter gets the same admission checks as
	// evaluate: unknown or read-only parameters fail the whole request
	// before any cell runs.
	total := 1
	for k, vs := range req.Grid {
		if !s.checkParam(w, k) {
			return
		}
		if len(vs) == 0 {
			writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
				map[string]any{"axis": k}, "grid axis %q is empty", k)
			return
		}
		total *= len(vs)
		if total > s.opts.MaxSweepCells {
			writeErrorDetails(w, http.StatusBadRequest, CodeBadRequest,
				map[string]any{"max_cells": s.opts.MaxSweepCells},
				"grid expands past the %d-cell limit", s.opts.MaxSweepCells)
			return
		}
	}
	for k := range req.Base {
		if !s.checkParam(w, k) {
			return
		}
	}

	cells := expandGrid(req.Base, req.Grid)
	tenant := tenantOf(r)
	job, rctx, cancel, writeLine := s.openStream(w, r, "sweep", req.Workload, len(cells))
	if job == nil {
		return
	}
	defer cancel()
	before := s.cache.Stats()
	t0 := time.Now()
	writeLine(SweepHeader{
		Job: job.id, Workload: req.Workload, Cells: len(cells),
		Reps: reps, Seed: seed, Scale: s.opts.Scale,
	})

	// Each cell is one Block-mode measurement: the queue's worker bound is
	// the sweep's parallelism, and a full backlog blocks dispatch
	// (backpressure on this one request) instead of failing cells with
	// ErrQueueFull. Each cell's error travels next to its wire form so the
	// collector can tell cancellations from failures.
	type result struct {
		cell SweepCell
		err  error
	}
	results := make(chan result)
	var wg sync.WaitGroup
	for i, cfg := range cells {
		wg.Add(1)
		go func(i int, wire map[string]int64) {
			defer wg.Done()
			cfg := params.Config{}
			for k, v := range wire {
				cfg[k] = v
			}
			walls, sum, err := s.measure(rctx, tenant, pool.Block,
				core.EvalRequest{Workload: req.Workload, Config: cfg, Reps: reps, SeedBase: seed}, nil)
			cell := SweepCell{Index: i, Config: wire}
			if err != nil {
				cell.Error = inBandError(err)
			} else {
				cell.MeanSeconds = sum.Mean
				cell.CI90Seconds = sum.CI90
				cell.WallsSeconds = walls
			}
			results <- result{cell, err}
		}(i, cfg)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var done, failed int
	for res := range results {
		switch {
		case isCtxErr(res.err):
			// A cancelled cell is not progress and not a cell failure;
			// the footer's cancelled flag reports it collectively.
			continue
		case res.err != nil:
			failed++
		default:
			done++
		}
		job.cellDone()
		writeLine(res.cell)
	}

	delta := s.cache.Stats().Delta(before)
	footer := SweepFooter{
		Done: done, Failed: failed, Cells: len(cells),
		Cancelled: rctx.Err() != nil,
		Seconds:   time.Since(t0).Seconds(),
		Cache:     delta,
	}
	// One marshal serves both the stream's footer line and the retained
	// job result (SweepFooter contains no unmarshalable types).
	data, _ := json.Marshal(footer)
	writeLine(json.RawMessage(data))
	if footer.Cancelled {
		job.fail(rctx.Err(), &delta)
		return
	}
	job.finish(data, &delta)
}

// checkParam validates one configurable parameter name at admission
// (evaluate configs, sweep grids and bases), writing a 400 and returning
// false when it cannot be set.
func (s *Server) checkParam(w http.ResponseWriter, name string) bool {
	p, ok := s.eng.Registry().Get(name)
	if !ok {
		writeErrorDetails(w, http.StatusBadRequest, CodeUnknownParameter,
			map[string]any{"parameter": name}, "unknown parameter %q", name)
		return false
	}
	if !p.Writable {
		writeErrorDetails(w, http.StatusBadRequest, CodeReadOnlyParameter,
			map[string]any{"parameter": name}, "parameter %q is read-only", name)
		return false
	}
	return true
}
