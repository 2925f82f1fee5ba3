package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stellar/internal/platform"
	"stellar/internal/runcache"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Scale == 0 {
		opts.Scale = 0.05
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestConcurrentIdenticalEvaluates is the service's core contract: 16
// concurrent identical requests produce exactly one simulator run (the
// singleflight table coalesces the in-flight ones) and byte-identical
// response bodies.
func TestConcurrentIdenticalEvaluates(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 16, Backlog: 32})

	const n = 16
	body := `{"workload":"IOR_16M","reps":1,"seed":99}`
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := post(t, ts.URL+"/v1/evaluate", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: HTTP %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = data
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	st := s.cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("backend executed %d runs, want exactly 1 (stats: %s)", st.Misses, st)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Fatalf("hits %d + coalesced %d, want %d (stats: %s)", st.Hits, st.Coalesced, n-1, st)
	}
}

// TestEvaluateDistinctSeedsAreDistinctRuns guards the counter's meaning:
// different specs must not be conflated by the cache.
func TestEvaluateDistinctSeedsAreDistinctRuns(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for seed := 1; seed <= 3; seed++ {
		resp, data := post(t, ts.URL+"/v1/evaluate",
			fmt.Sprintf(`{"workload":"IOR_16M","reps":1,"seed":%d}`, seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: HTTP %d: %s", seed, resp.StatusCode, data)
		}
	}
	if st := s.cache.Stats(); st.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (stats: %s)", st.Misses, st)
	}
}

// blockingPlatform blocks every Run until its context dies, reporting what
// it observed — the probe proving a client disconnect reaches the platform.
type blockingPlatform struct {
	started chan struct{}
	saw     chan error
}

func (b *blockingPlatform) Name() string { return "blocking" }

func (b *blockingPlatform) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	b.started <- struct{}{}
	<-ctx.Done()
	b.saw <- ctx.Err()
	return nil, ctx.Err()
}

// TestClientDisconnectCancelsRun: dropping the HTTP request cancels the
// request context, which must propagate through the queue and the cache
// into the running Platform.Run.
func TestClientDisconnectCancelsRun(t *testing.T) {
	bp := &blockingPlatform{started: make(chan struct{}, 1), saw: make(chan error, 1)}
	_, ts := newTestServer(t, Options{Cache: runcache.New(bp, 0)})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/evaluate",
		strings.NewReader(`{"workload":"IOR_16M","reps":1,"seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	select {
	case <-bp.started:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation never started")
	}
	cancel() // client walks away mid-simulation

	select {
	case err := <-bp.saw:
		if err != context.Canceled {
			t.Fatalf("platform saw %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation never reached the platform")
	}
	if err := <-errc; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}
}

// TestFigureJobLifecycle drives the asynchronous path end to end: submit,
// poll to completion, fetch the rendered result.
func TestFigureJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Reps: 2})

	// fig2 is LLM-only (no simulation), so the job completes quickly.
	resp, data := post(t, ts.URL+"/v1/figures/fig2", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("submit response: %v: %s", err, data)
	}
	if v.Kind != "figure" || v.Target != "fig2" {
		t.Fatalf("job view = %+v", v)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, data = get(t, ts.URL+"/v1/jobs/"+v.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: HTTP %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == JobDone || v.Status == JobFailed || v.Status == JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", v.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v.Status != JobDone {
		t.Fatalf("job finished %q (error %v)", v.Status, v.Error)
	}
	var res FigureResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("result payload: %v: %s", err, v.Result)
	}
	if res.ID != "fig2" || !strings.Contains(res.Text, "Figure 2") {
		t.Fatalf("unexpected figure result: %+v", res)
	}
	if v.Cache == nil {
		t.Fatal("figure job missing cache-activity delta")
	}
}

// TestFigureJobCancel: DELETE on a running job cancels its context; the
// job lands in cancelled, not failed.
func TestFigureJobCancel(t *testing.T) {
	bp := &blockingPlatform{started: make(chan struct{}, 1), saw: make(chan error, 8)}
	_, ts := newTestServer(t, Options{Cache: runcache.New(bp, 0)})

	resp, data := post(t, ts.URL+"/v1/figures/fig8", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	<-bp.started // fig8's initial traced run is now blocked in the backend

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", dresp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, data = get(t, ts.URL+"/v1/jobs/"+v.ID)
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == JobCancelled {
			break
		}
		if v.Status == JobDone || v.Status == JobFailed {
			t.Fatalf("job finished %q, want cancelled (error %v)", v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q after cancel", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEvaluateValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"missing workload", `{}`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"NoSuchBench","reps":1}`, http.StatusBadRequest},
		{"unknown parameter", `{"workload":"IOR_16M","reps":1,"config":{"bogus.knob":1}}`, http.StatusBadRequest},
		{"read-only parameter", `{"workload":"IOR_16M","reps":1,"config":{"version":1}}`, http.StatusBadRequest},
		{"reps over limit", `{"workload":"IOR_16M","reps":65}`, http.StatusBadRequest},
		{"negative reps", `{"workload":"IOR_16M","reps":-1}`, http.StatusBadRequest},
		{"malformed json", `{"workload":`, http.StatusBadRequest},
		{"trailing data", `{"workload":"IOR_16M","reps":1} {"reps":"garbage"} trailing`, http.StatusBadRequest},
		{"unknown field", `{"workload":"IOR_16M","repz":3}`, http.StatusBadRequest},
		{"fault severity out of range", `{"workload":"IOR_16M","reps":1,"faults":{"severity":2}}`, http.StatusBadRequest},
		{"fault window without recovery gap", `{"workload":"IOR_16M","reps":1,"faults":{"osts":[{"ost":0,"factor":0,"start":0,"duration":0.2,"period":0.1}]}}`, http.StatusBadRequest},
		{"unknown fault field", `{"workload":"IOR_16M","reps":1,"faults":{"sev":1}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+"/v1/evaluate", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			var e struct {
				Error ErrorBody `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("error body not structured: %s", data)
			}
		})
	}

	if resp, _ := post(t, ts.URL+"/v1/figures/nope", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown figure: HTTP %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}

	// Figure overrides get the same admission checks: a negative reps
	// would otherwise panic inside a queue worker and kill the process.
	figCases := []struct{ name, body string }{
		{"figure negative reps", `{"reps":-3}`},
		{"figure reps over limit", `{"reps":1000}`},
		{"figure negative scale", `{"scale":-0.5}`},
		{"figure scale over 1", `{"scale":4.0}`},
	}
	for _, tc := range figCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+"/v1/figures/fig5", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400: %s", resp.StatusCode, data)
			}
		})
	}
}

// TestEvaluateJobCancelViaDelete: evaluate jobs are cancellable through the
// jobs API, not only by client disconnect.
func TestEvaluateJobCancelViaDelete(t *testing.T) {
	bp := &blockingPlatform{started: make(chan struct{}, 1), saw: make(chan error, 1)}
	_, ts := newTestServer(t, Options{Cache: runcache.New(bp, 0)})

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
			strings.NewReader(`{"workload":"IOR_16M","reps":1,"seed":6}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				err = fmt.Errorf("cancelled evaluate returned 200")
			}
		}
		errc <- err
	}()
	<-bp.started // the evaluate job (job-1) is now blocked in the backend

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d, want 202", dresp.StatusCode)
	}
	select {
	case err := <-bp.saw:
		if err != context.Canceled {
			t.Fatalf("platform saw %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DELETE never cancelled the evaluate job")
	}
	if err := <-errc; err != nil && strings.Contains(err.Error(), "200") {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, data := get(t, ts.URL+"/v1/jobs/job-1")
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == JobCancelled {
			break
		}
		if v.Status == JobDone {
			t.Fatalf("job finished %q, want cancelled", v.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q after DELETE", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueBackpressureHTTP: a saturated queue turns into 429, not
// unbounded buffering.
func TestQueueBackpressureHTTP(t *testing.T) {
	bp := &blockingPlatform{started: make(chan struct{}, 4), saw: make(chan error, 4)}
	_, ts := newTestServer(t, Options{Cache: runcache.New(bp, 0), Workers: 1, Backlog: -1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/evaluate",
		strings.NewReader(`{"workload":"IOR_16M","reps":1,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-bp.started // the lone worker is now occupied, backlog is 0

	resp, data := post(t, ts.URL+"/v1/evaluate", `{"workload":"IOR_16M","reps":1,"seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429: %s", resp.StatusCode, data)
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if resp, data := post(t, ts.URL+"/v1/evaluate", `{"workload":"IOR_16M","reps":1,"seed":3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: HTTP %d: %s", resp.StatusCode, data)
	}

	resp, data := get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("stats body: %v: %s", err, data)
	}
	if st.Platform != "cache(sim)" {
		t.Fatalf("platform = %q, want cache(sim)", st.Platform)
	}
	if st.Cache.Misses == 0 {
		t.Fatalf("cache counters not surfaced: %+v", st.Cache)
	}
	if st.Queue.Workers < 1 {
		t.Fatalf("queue stats not surfaced: %+v", st.Queue)
	}
	if st.Jobs[JobDone] != 1 {
		t.Fatalf("job tally = %v, want 1 done", st.Jobs)
	}

	resp, data = get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs list: HTTP %d", resp.StatusCode)
	}
	var list []JobView
	if err := json.Unmarshal(data, &list); err != nil || len(list) != 1 {
		t.Fatalf("jobs list = %s (err %v)", data, err)
	}

	if resp, _ := get(t, ts.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
}

func TestPprofExposure(t *testing.T) {
	// Off by default: profiling endpoints must not leak into a handler
	// that was not asked for them.
	_, plain := newTestServer(t, Options{})
	if resp, _ := get(t, plain.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without opt-in: HTTP %d", resp.StatusCode)
	}

	_, ts := newTestServer(t, Options{Pprof: true})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, data := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, resp.StatusCode, data)
		}
		if len(data) == 0 {
			t.Fatalf("%s: empty body", path)
		}
	}
	// The index lists the runtime profiles; spot-check one so a routing
	// change that serves a wrong handler under the prefix gets caught.
	resp, data := get(t, ts.URL+"/debug/pprof/heap?debug=1")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("heap profile")) {
		t.Fatalf("heap profile: HTTP %d: %.80s", resp.StatusCode, data)
	}
}

// sweepLines posts a sweep request and splits the NDJSON response into its
// header, cell lines, and footer.
func sweepLines(t *testing.T, url, body string) (SweepHeader, []SweepCell, SweepFooter) {
	t.Helper()
	resp, data := post(t, url+"/v1/sweeps", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("sweep response has %d lines: %s", len(lines), data)
	}
	var header SweepHeader
	if err := json.Unmarshal(lines[0], &header); err != nil {
		t.Fatalf("header line: %v: %s", err, lines[0])
	}
	var footer SweepFooter
	if err := json.Unmarshal(lines[len(lines)-1], &footer); err != nil {
		t.Fatalf("footer line: %v: %s", err, lines[len(lines)-1])
	}
	cells := make([]SweepCell, 0, len(lines)-2)
	for _, line := range lines[1 : len(lines)-1] {
		var c SweepCell
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("cell line: %v: %s", err, line)
		}
		cells = append(cells, c)
	}
	return header, cells, footer
}

// TestSweepGridExpansion is the batch contract: one POST measures the whole
// cross-product through the shared cache — every unique cell simulates
// exactly once — and a repeated identical sweep is pure cache hits.
func TestSweepGridExpansion(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, Backlog: 16})
	body := `{"workload":"IOR_16M","reps":1,"seed":7,
		"grid":{"osc.max_pages_per_rpc":[256,512],"osc.max_rpcs_in_flight":[8,16]}}`

	header, cells, footer := sweepLines(t, ts.URL, body)
	if header.Cells != 4 || header.Workload != "IOR_16M" || header.Reps != 1 {
		t.Fatalf("header = %+v", header)
	}
	if len(cells) != 4 || footer.Done != 4 || footer.Failed != 0 || footer.Cancelled {
		t.Fatalf("cells=%d footer=%+v", len(cells), footer)
	}
	seen := map[int]bool{}
	for _, c := range cells {
		if c.Error != "" {
			t.Fatalf("cell %d failed: %s", c.Index, c.Error)
		}
		if c.MeanSeconds <= 0 || len(c.WallsSeconds) != 1 {
			t.Fatalf("cell %d has no measurement: %+v", c.Index, c)
		}
		if c.Config["osc.max_pages_per_rpc"] == 0 || c.Config["osc.max_rpcs_in_flight"] == 0 {
			t.Fatalf("cell %d config not expanded: %+v", c.Index, c.Config)
		}
		seen[c.Index] = true
	}
	if len(seen) != 4 {
		t.Fatalf("cell indices not unique: %v", seen)
	}
	// 4 unique cells × 1 rep: exactly 4 backend runs, attributed to the pass.
	if footer.Cache.Misses != 4 {
		t.Fatalf("sweep delta misses = %d, want 4 (%s)", footer.Cache.Misses, footer.Cache)
	}

	// The identical grid again: all hits, zero new simulations.
	_, _, footer2 := sweepLines(t, ts.URL, body)
	if footer2.Done != 4 || footer2.Cache.Misses != 0 || footer2.Cache.Hits != 4 {
		t.Fatalf("repeated sweep delta = %+v", footer2.Cache)
	}
	if st := s.cache.Stats(); st.Misses != 4 {
		t.Fatalf("process-wide misses = %d, want 4 (%s)", st.Misses, st)
	}

	// The sweep is a retained job with progress and a footer result.
	resp, data := get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs: HTTP %d", resp.StatusCode)
	}
	var jobs []JobView
	if err := json.Unmarshal(data, &jobs); err != nil || len(jobs) != 2 {
		t.Fatalf("jobs = %s (err %v)", data, err)
	}
	for _, j := range jobs {
		if j.Kind != "sweep" || j.Status != JobDone || j.Progress == nil || j.Progress.Done != 4 || j.Progress.Total != 4 {
			t.Fatalf("sweep job view = %+v", j)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSweepCells: 4})
	cases := []struct{ name, body string }{
		{"missing workload", `{"grid":{"osc.max_dirty_mb":[1]}}`},
		{"unknown workload", `{"workload":"NoSuchBench","grid":{"osc.max_dirty_mb":[1]}}`},
		{"missing grid", `{"workload":"IOR_16M"}`},
		{"empty grid axis", `{"workload":"IOR_16M","grid":{"osc.max_dirty_mb":[]}}`},
		{"unknown grid parameter", `{"workload":"IOR_16M","grid":{"bogus.knob":[1]}}`},
		{"read-only grid parameter", `{"workload":"IOR_16M","grid":{"version":[1]}}`},
		{"unknown base parameter", `{"workload":"IOR_16M","base":{"bogus.knob":1},"grid":{"osc.max_dirty_mb":[1]}}`},
		{"reps over limit", `{"workload":"IOR_16M","reps":65,"grid":{"osc.max_dirty_mb":[1]}}`},
		{"grid too large", `{"workload":"IOR_16M","grid":{"osc.max_dirty_mb":[1,2,4,8,16]}}`},
		{"malformed json", `{"workload":`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+"/v1/sweeps", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400: %s", resp.StatusCode, data)
			}
		})
	}
}

// TestSweepBaseOverlay: base values apply to every cell, grid axes override.
func TestSweepBaseOverlay(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	_, cells, footer := sweepLines(t, ts.URL,
		`{"workload":"IOR_16M","reps":1,"base":{"osc.max_dirty_mb":64},
		  "grid":{"osc.max_pages_per_rpc":[256,512]}}`)
	if footer.Done != 2 {
		t.Fatalf("footer = %+v", footer)
	}
	for _, c := range cells {
		if c.Config["osc.max_dirty_mb"] != 64 {
			t.Fatalf("cell %d lost the base value: %+v", c.Index, c.Config)
		}
	}
}

// TestSweepCancelStreamsPartialProgress: cancelling the sweep job mid-grid
// stops dispatch; the footer reports cancelled with fewer cells done.
func TestSweepCancelStreamsPartialProgress(t *testing.T) {
	bp := &blockingPlatform{started: make(chan struct{}, 8), saw: make(chan error, 8)}
	_, ts := newTestServer(t, Options{Cache: runcache.New(bp, 0), Workers: 1, Backlog: 8})

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"workload":"IOR_16M","reps":1,
			"grid":{"osc.max_pages_per_rpc":[256,512,1024]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The header streams immediately and carries the job id to cancel.
	var header SweepHeader
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&header); err != nil {
		t.Fatalf("header: %v", err)
	}
	<-bp.started // first cell is now blocked inside the backend

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+header.Job, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	var footer SweepFooter
	sawFooter := false
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			break
		}
		if bytes.Contains(raw, []byte(`"cells"`)) && !bytes.Contains(raw, []byte(`"index"`)) {
			if err := json.Unmarshal(raw, &footer); err == nil {
				sawFooter = true
			}
		}
	}
	if !sawFooter {
		t.Fatal("cancelled sweep never streamed its footer")
	}
	if !footer.Cancelled {
		t.Fatalf("footer = %+v, want cancelled", footer)
	}
	if footer.Done >= header.Cells {
		t.Fatalf("cancelled sweep completed all %d cells", footer.Done)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, data := get(t, ts.URL+"/v1/jobs/"+header.Job)
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == JobCancelled {
			break
		}
		if v.Status == JobDone || v.Status == JobFailed {
			t.Fatalf("sweep job finished %q, want cancelled", v.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep job stuck in %q", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWarmStartAcrossRestart is the persistence acceptance contract: a
// server restarted over the same cache directory answers the identical
// request set with zero misses and byte-identical bodies.
func TestWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	requests := []string{
		`{"workload":"IOR_16M","reps":2,"seed":42}`,
		`{"workload":"IOR_16M","reps":1,"seed":7}`,
		`{"workload":"MDWorkbench_2K","reps":1,"seed":42}`,
	}

	run := func() ([][]byte, runcache.Stats) {
		s, err := New(Options{Scale: 0.05, Cache: runcache.NewWithOptions(platform.Simulator{}, runcache.Options{Dir: dir})})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		bodies := make([][]byte, len(requests))
		for i, body := range requests {
			resp, data := post(t, ts.URL+"/v1/evaluate", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: HTTP %d: %s", i, resp.StatusCode, data)
			}
			bodies[i] = data
		}
		return bodies, s.cache.Stats()
	}

	first, coldStats := run()
	if coldStats.Misses == 0 || !coldStats.Persisted {
		t.Fatalf("first life did not simulate: %+v", coldStats)
	}

	second, warmStats := run() // a brand-new server: the "restart"
	if warmStats.Misses != 0 {
		t.Fatalf("restarted server re-simulated: %d misses (%s)", warmStats.Misses, warmStats)
	}
	if warmStats.DiskHits != coldStats.Misses {
		t.Fatalf("disk hits = %d, want %d (%s)", warmStats.DiskHits, coldStats.Misses, warmStats)
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("request %d body changed across restart:\n%s\nvs\n%s", i, first[i], second[i])
		}
	}
}

// TestFaultedEvaluateDeterminismAcrossRestart is the fault layer's service
// contract, mirroring TestWarmStartAcrossRestart: the same seed and fault
// plan produce byte-identical /v1/evaluate bodies across two server
// processes, faulted runs are cached under keys distinct from the clean
// run's (both simulate on a cold cache), and a restarted server re-serves
// the faulted results from disk without re-simulating.
func TestFaultedEvaluateDeterminismAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	faulted := `{"workload":"IOR_16M","reps":2,"seed":42,"faults":{"seed":42,"severity":0.6}}`
	clean := `{"workload":"IOR_16M","reps":2,"seed":42}`

	run := func() (faultedBody, cleanBody []byte, st runcache.Stats) {
		s, err := New(Options{Scale: 0.05, Cache: runcache.NewWithOptions(platform.Simulator{}, runcache.Options{Dir: dir})})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, fb := post(t, ts.URL+"/v1/evaluate", faulted)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("faulted evaluate: HTTP %d: %s", resp.StatusCode, fb)
		}
		resp, cb := post(t, ts.URL+"/v1/evaluate", clean)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("clean evaluate: HTTP %d: %s", resp.StatusCode, cb)
		}
		return fb, cb, s.cache.Stats()
	}

	fault1, clean1, cold := run()
	// Distinct cache keys: the faulted and clean requests share workload,
	// config, reps, and seed, so 4 misses (2 reps each) means the plan is
	// part of the content address.
	if cold.Misses != 4 {
		t.Fatalf("cold misses = %d, want 4 (2 faulted + 2 clean reps under distinct keys)", cold.Misses)
	}
	if bytes.Equal(fault1, clean1) {
		t.Fatal("faulted response identical to clean response")
	}
	if !bytes.Contains(fault1, []byte(`"faults"`)) {
		t.Fatalf("faulted response does not echo the plan: %s", fault1)
	}
	if bytes.Contains(clean1, []byte(`"faults"`)) {
		t.Fatalf("clean response carries a fault block: %s", clean1)
	}

	fault2, clean2, warm := run() // brand-new process over the same cache dir
	if warm.Misses != 0 {
		t.Fatalf("restarted server re-simulated: %d misses (%s)", warm.Misses, warm)
	}
	if !bytes.Equal(fault1, fault2) {
		t.Fatalf("faulted body changed across restart:\n%s\nvs\n%s", fault1, fault2)
	}
	if !bytes.Equal(clean1, clean2) {
		t.Fatalf("clean body changed across restart:\n%s\nvs\n%s", clean1, clean2)
	}
}

// gatedPlatform blocks Run until released (then executes the real
// simulator) and records which workloads ever reached the backend.
type gatedPlatform struct {
	started chan struct{}
	release chan struct{}

	mu  sync.Mutex
	ran map[string]int
}

func (g *gatedPlatform) Name() string { return "gated" }

func (g *gatedPlatform) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	g.mu.Lock()
	if g.ran == nil {
		g.ran = map[string]int{}
	}
	g.ran[spec.Workload.Name]++
	g.mu.Unlock()
	select {
	case g.started <- struct{}{}:
	default:
	}
	select {
	case <-g.release:
		return platform.Simulator{}.Run(ctx, spec)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (g *gatedPlatform) runsFor(name string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ran[name]
}

// TestFigureJobCancelWhileQueued: DELETE on a job that is still waiting for
// a worker must report cancelled promptly once a worker reaches it — and
// the job's experiment must never execute a single backend run.
func TestFigureJobCancelWhileQueued(t *testing.T) {
	gp := &gatedPlatform{started: make(chan struct{}, 1), release: make(chan struct{})}
	_, ts := newTestServer(t, Options{Cache: runcache.New(gp, 0), Workers: 1, Backlog: 8, Reps: 1})

	// Job A (fig8, MDWorkbench_8K) occupies the only worker.
	resp, data := post(t, ts.URL+"/v1/figures/fig8", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: HTTP %d: %s", resp.StatusCode, data)
	}
	<-gp.started // A is inside the backend

	// Job B (fig9, IOR_16M) is admitted but stuck behind A: still queued.
	resp, data = post(t, ts.URL+"/v1/figures/fig9", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: HTTP %d: %s", resp.StatusCode, data)
	}
	var b JobView
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Status != JobQueued {
		t.Fatalf("job B = %q, want queued", b.Status)
	}

	// Cancel B while it is still queued, then let A finish.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	close(gp.release)

	deadline := time.Now().Add(30 * time.Second)
	for {
		_, data := get(t, ts.URL+"/v1/jobs/"+b.ID)
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == JobCancelled {
			// Cancelled while queued means never started: no start
			// timestamp and no backend run of B's workload.
			if v.Started != nil {
				t.Fatalf("cancelled-while-queued job has a start time: %+v", v)
			}
			break
		}
		if v.Status == JobDone || v.Status == JobFailed {
			t.Fatalf("job B finished %q, want cancelled", v.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job B stuck in %q after DELETE", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := gp.runsFor("IOR_16M"); got != 0 {
		t.Fatalf("cancelled-while-queued job still ran %d IOR_16M trials", got)
	}
}

// TestSharedCacheAcrossServers proves Options.Cache makes the cache truly
// process-wide: a second server over the same cache serves the first
// server's results without re-simulating.
func TestSharedCacheAcrossServers(t *testing.T) {
	shared := runcache.New(platform.Simulator{}, 0)
	_, ts1 := newTestServer(t, Options{Cache: shared})
	_, ts2 := newTestServer(t, Options{Cache: shared})

	body := `{"workload":"IOR_16M","reps":1,"seed":42}`
	if resp, data := post(t, ts1.URL+"/v1/evaluate", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("server 1: HTTP %d: %s", resp.StatusCode, data)
	}
	if resp, data := post(t, ts2.URL+"/v1/evaluate", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("server 2: HTTP %d: %s", resp.StatusCode, data)
	}
	st := shared.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %s, want 1 miss + 1 hit", st)
	}
}

// tuneLines posts a tune request and splits the NDJSON response into its
// header, round lines, and footer.
func tuneLines(t *testing.T, url, body string) (TuneHeader, []TuneRound, TuneFooter) {
	t.Helper()
	resp, data := post(t, url+"/v1/tune", body)
	return parseTune(t, resp, data)
}

// parseTune splits a complete tune response into its header, round lines,
// and footer.
func parseTune(t *testing.T, resp *http.Response, data []byte) (TuneHeader, []TuneRound, TuneFooter) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tune: HTTP %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("tune response has %d lines: %s", len(lines), data)
	}
	var header TuneHeader
	if err := json.Unmarshal(lines[0], &header); err != nil {
		t.Fatalf("header line: %v: %s", err, lines[0])
	}
	var footer TuneFooter
	if err := json.Unmarshal(lines[len(lines)-1], &footer); err != nil {
		t.Fatalf("footer line: %v: %s", err, lines[len(lines)-1])
	}
	rounds := make([]TuneRound, 0, len(lines)-2)
	for _, line := range lines[1 : len(lines)-1] {
		var r TuneRound
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("round line: %v: %s", err, line)
		}
		rounds = append(rounds, r)
	}
	return header, rounds, footer
}

// TestTuneSearchEndToEnd is the tuning-search acceptance contract: a seeded
// search is reproducible across two runs (identical winner, identical round
// log), costs strictly fewer simulator runs than exhaustively evaluating
// its candidate pool at full precision, and a repeat over the same shared
// cache issues zero new simulations.
func TestTuneSearchEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, Backlog: 32})
	body := `{"workload":"IOR_16M","candidates":4,"min_reps":1,"max_reps":2,"seed":5}`

	header, rounds, footer := tuneLines(t, ts.URL, body)
	if header.Workload != "IOR_16M" || header.Candidates != 4 || header.Objective != "mean" ||
		header.Eta != 2 || header.MinReps != 1 || header.MaxReps != 2 || header.Seed != 5 {
		t.Fatalf("header not resolved: %+v", header)
	}
	if footer.Error != "" || footer.Cancelled {
		t.Fatalf("footer = %+v", footer)
	}
	if len(rounds) != footer.Rounds {
		t.Fatalf("streamed %d rounds, footer says %d", len(rounds), footer.Rounds)
	}
	if len(footer.Winner.Config) == 0 || footer.Winner.Reps != 2 {
		t.Fatalf("winner = %+v", footer.Winner)
	}
	if len(header.Space) == 0 {
		t.Fatalf("header does not resolve the search space: %+v", header)
	}
	if footer.Speedup <= 0 {
		t.Fatalf("speedup = %g, want > 0 (baseline measured at winner precision)", footer.Speedup)
	}
	// Strictly fewer simulator runs than evaluating all 4 candidates at
	// max_reps (4*2 = 8) exhaustively — the halving + cache contract.
	exhaustive := uint64(4 * 2)
	if footer.Cache.Misses == 0 || footer.Cache.Misses >= exhaustive {
		t.Fatalf("search cost %d simulator runs, exhaustive costs %d", footer.Cache.Misses, exhaustive)
	}
	// Survivor promotion re-requests runs earlier rounds already paid for.
	if footer.Cache.Hits == 0 {
		t.Fatalf("search never hit the cache: %+v", footer.Cache)
	}

	// The identical search again: same winner, same round log, zero new
	// simulations (every evaluation is already cached).
	header2, rounds2, footer2 := tuneLines(t, ts.URL, body)
	if header2.Candidates != header.Candidates || header2.Seed != header.Seed {
		t.Fatalf("second header diverged: %+v vs %+v", header, header2)
	}
	if footer2.Cache.Misses != 0 {
		t.Fatalf("repeated search missed the cache %d times, want 0", footer2.Cache.Misses)
	}
	w1, _ := json.Marshal(footer.Winner)
	w2, _ := json.Marshal(footer2.Winner)
	if !bytes.Equal(w1, w2) {
		t.Fatalf("winners differ:\n%s\n%s", w1, w2)
	}
	r1, _ := json.Marshal(rounds)
	r2, _ := json.Marshal(rounds2)
	// Round lines embed per-round cache deltas, which legitimately differ
	// between a cold and a warm search; compare the search content only.
	var c1, c2 []map[string]json.RawMessage
	json.Unmarshal(r1, &c1)
	json.Unmarshal(r2, &c2)
	for i := range c1 {
		delete(c1[i], "cache")
		delete(c2[i], "cache")
	}
	s1, _ := json.Marshal(c1)
	s2, _ := json.Marshal(c2)
	if !bytes.Equal(s1, s2) {
		t.Fatalf("round logs differ:\n%s\n%s", s1, s2)
	}

	// Both searches are retained jobs with round-level progress.
	_, data := get(t, ts.URL+"/v1/jobs")
	var jobs []JobView
	if err := json.Unmarshal(data, &jobs); err != nil || len(jobs) != 2 {
		t.Fatalf("jobs = %s (err %v)", data, err)
	}
	for _, j := range jobs {
		if j.Kind != "tune" || j.Status != JobDone || j.Progress == nil || j.Progress.Done != footer.Rounds || j.Progress.Total != footer.Rounds {
			t.Fatalf("tune job view = %+v", j)
		}
	}
	if st := s.cache.Stats(); st.Misses != footer.Cache.Misses {
		t.Fatalf("process-wide misses %d != first-search misses %d", st.Misses, footer.Cache.Misses)
	}
}

// TestTuneHugeEtaEndsWithFooter: eta at the top of int64 is a valid eta
// (>= 2); the search must cull to one candidate in one round, measure it at
// max_reps in a second, and stream its footer instead of spinning forever.
func TestTuneHugeEtaEndsWithFooter(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Backlog: 32})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	body := `{"workload":"IOR_16M","candidates":4,"max_reps":2,"eta":9223372036854775807}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/tune", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("tune with eta = MaxInt64: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("tune with eta = MaxInt64: %v", err)
	}
	header, rounds, footer := parseTune(t, resp, data)
	if header.Eta != math.MaxInt64 {
		t.Fatalf("header eta = %d", header.Eta)
	}
	if footer.Error != "" || footer.Cancelled || footer.Rounds != 2 || len(rounds) != 2 || footer.Winner.Reps != 2 {
		t.Fatalf("footer = %+v after %d rounds, want 2 rounds and a winner at 2 reps", footer, len(rounds))
	}
}

// TestTuneKeepsWorkersBusy: a search's per-request budget parks every
// candidate of a round in the queue at once, so one /v1/tune keeps both
// workers of a two-worker server simulating even though the server's own
// budget (Parallel 1) runs each measurement's reps serially.
func TestTuneKeepsWorkersBusy(t *testing.T) {
	gp := &gatedPlatform{started: make(chan struct{}, 8), release: make(chan struct{})}
	_, ts := newTestServer(t, Options{Cache: runcache.New(gp, 0), Workers: 2, Backlog: 32})
	type reply struct {
		resp *http.Response
		data []byte
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/tune", "application/json",
			strings.NewReader(`{"workload":"IOR_16M","candidates":4,"max_reps":2,"seed":5}`))
		if err != nil {
			done <- reply{err: err}
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- reply{resp, data, err}
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-gp.started:
		case <-time.After(5 * time.Second):
			close(gp.release)
			t.Fatalf("only %d simulation(s) in flight for one search on a two-worker server, want 2", i)
		}
	}
	close(gp.release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if _, _, footer := parseTune(t, r.resp, r.data); footer.Error != "" || footer.Cancelled {
		t.Fatalf("footer = %+v", footer)
	}
}

// TestTuneRobustObjective runs a small robust search over HTTP: each
// candidate is measured on the clean cluster plus two fault variants, the
// header echoes the fault block, and the identical request reproduces the
// identical winner with zero new simulations.
func TestTuneRobustObjective(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, Backlog: 32})
	body := `{"workload":"IOR_16M","candidates":4,"min_reps":1,"max_reps":2,"seed":5,` +
		`"objective":{"kind":"robust"},"faults":{"seed":42,"severity":0.6},"fault_variants":2}`

	header, rounds, footer := tuneLines(t, ts.URL, body)
	if header.Faults == nil || header.Faults.Seed != 42 || header.FaultVariants != 2 {
		t.Fatalf("header does not echo the fault setup: %+v", header)
	}
	if !strings.Contains(header.Objective, "robust") {
		t.Fatalf("objective = %q, want robust", header.Objective)
	}
	if footer.Error != "" || footer.Cancelled {
		t.Fatalf("footer = %+v", footer)
	}
	if len(rounds) != footer.Rounds || len(footer.Winner.Config) == 0 {
		t.Fatalf("rounds %d (footer %d), winner %+v", len(rounds), footer.Rounds, footer.Winner)
	}
	// Each evaluation concatenates clean + 2 fault variants.
	if want := footer.Winner.Reps * 3; len(footer.Winner.WallsSeconds) != want {
		t.Fatalf("winner series has %d walls, want %d (3 variants x %d reps)",
			len(footer.Winner.WallsSeconds), want, footer.Winner.Reps)
	}

	before := s.cache.Stats()
	header2, _, footer2 := tuneLines(t, ts.URL, body)
	if delta := s.cache.Stats().Delta(before); delta.Misses != 0 {
		t.Fatalf("repeated robust search missed the cache %d times, want 0", delta.Misses)
	}
	if header2.FaultVariants != header.FaultVariants {
		t.Fatalf("second header diverged: %+v vs %+v", header, header2)
	}
	w1, _ := json.Marshal(footer.Winner)
	w2, _ := json.Marshal(footer2.Winner)
	if !bytes.Equal(w1, w2) {
		t.Fatalf("robust winners differ:\n%s\n%s", w1, w2)
	}

	// A single-plan (non-robust) faulted tune also works and caches under
	// the fault-keyed runs the robust search already paid for variant 1.
	single := `{"workload":"IOR_16M","candidates":4,"min_reps":1,"max_reps":2,"seed":5,` +
		`"faults":{"seed":42,"severity":0.6}}`
	h3, _, f3 := tuneLines(t, ts.URL, single)
	if h3.Faults == nil || h3.FaultVariants != 0 {
		t.Fatalf("single-plan header = %+v", h3)
	}
	if f3.Error != "" || len(f3.Winner.Config) == 0 {
		t.Fatalf("single-plan footer = %+v", f3)
	}
}

func TestTuneValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxTuneCandidates: 16})
	for name, body := range map[string]string{
		"missing workload":        `{}`,
		"unknown workload":        `{"workload":"nope"}`,
		"one candidate":           `{"workload":"IOR_16M","candidates":1}`,
		"too many candidates":     `{"workload":"IOR_16M","candidates":17}`,
		"eta one":                 `{"workload":"IOR_16M","eta":1}`,
		"excessive max_reps":      `{"workload":"IOR_16M","max_reps":65}`,
		"min above max":           `{"workload":"IOR_16M","min_reps":3,"max_reps":2}`,
		"unknown space param":     `{"workload":"IOR_16M","space":["bogus.param"]}`,
		"read-only space":         `{"workload":"IOR_16M","space":["llite.kbytestotal"]}`,
		"unknown objective":       `{"workload":"IOR_16M","objective":{"kind":"bogus"}}`,
		"zero-weight composite":   `{"workload":"IOR_16M","objective":{"kind":"composite"}}`,
		"robust without faults":   `{"workload":"IOR_16M","objective":{"kind":"robust"}}`,
		"robust empty faults":     `{"workload":"IOR_16M","objective":{"kind":"robust"},"faults":{}}`,
		"excessive variants":      `{"workload":"IOR_16M","objective":{"kind":"robust"},"faults":{"seed":1,"severity":0.5},"fault_variants":9}`,
		"variants without robust": `{"workload":"IOR_16M","faults":{"seed":1,"severity":0.5},"fault_variants":2}`,
		"invalid tune fault plan": `{"workload":"IOR_16M","faults":{"severity":-1}}`,
	} {
		resp, data := post(t, ts.URL+"/v1/tune", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
}

// TestTuneCancelMidSearch: cancelling the tune job mid-round stops the
// search and the retained job reports cancelled.
func TestTuneCancelMidSearch(t *testing.T) {
	bp := &blockingPlatform{started: make(chan struct{}, 8), saw: make(chan error, 8)}
	_, ts := newTestServer(t, Options{Cache: runcache.New(bp, 0), Workers: 1, Backlog: 8})

	resp, err := http.Post(ts.URL+"/v1/tune", "application/json",
		strings.NewReader(`{"workload":"IOR_16M","candidates":4,"max_reps":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var header TuneHeader
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&header); err != nil {
		t.Fatalf("header: %v", err)
	}
	<-bp.started // first evaluation is now blocked inside the backend

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+header.Job, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	sawCancelledFooter := false
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			break
		}
		if bytes.Contains(raw, []byte(`"cancelled":true`)) {
			sawCancelledFooter = true
		}
	}
	if !sawCancelledFooter {
		t.Fatal("cancelled tune never streamed a cancelled footer")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, data := get(t, ts.URL+"/v1/jobs/"+header.Job)
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == JobCancelled {
			break
		}
		if v.Status == JobDone {
			t.Fatalf("tune job finished %q, want cancelled", v.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("tune job stuck in %q", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownMapsTo503 pins the queue error contract at the HTTP boundary:
// a server whose queue has shut down answers 503 (service unavailable),
// never 429 (back off and retry), on every admission path.
func TestShutdownMapsTo503(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.queue.Close()

	resp, data := post(t, ts.URL+"/v1/evaluate", `{"workload":"IOR_16M","reps":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("evaluate after shutdown: HTTP %d (%s), want 503", resp.StatusCode, data)
	}
	resp, data = post(t, ts.URL+"/v1/figures/fig2", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("figure after shutdown: HTTP %d (%s), want 503", resp.StatusCode, data)
	}
	resp, data = post(t, ts.URL+"/v1/tune", `{"workload":"IOR_16M"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("tune after shutdown: HTTP %d (%s), want 503", resp.StatusCode, data)
	}
	resp, data = post(t, ts.URL+"/v1/sweeps", `{"workload":"IOR_16M","reps":1,"grid":{"osc.max_pages_per_rpc":[256,512]}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("sweep after shutdown: HTTP %d (%s), want 503", resp.StatusCode, data)
	}
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != CodeShuttingDown {
		t.Errorf("sweep after shutdown: body %s, want code %q", data, CodeShuttingDown)
	}
}

// panickingPlatform panics on every run while armed and simulates
// normally once disarmed. The first armed runs wait until together of them
// are in flight, so a parallel fan-out panics on its helper goroutines,
// not only on its caller's.
type panickingPlatform struct {
	armed    atomic.Bool
	together int64
	entered  atomic.Int64
	gathered chan struct{}
}

func newPanickingPlatform(together int) *panickingPlatform {
	p := &panickingPlatform{together: int64(max(together, 1)), gathered: make(chan struct{})}
	p.armed.Store(true)
	return p
}

func (p *panickingPlatform) Name() string { return "panicking" }

func (p *panickingPlatform) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	if p.armed.Load() {
		if p.entered.Add(1) == p.together {
			close(p.gathered)
		}
		select {
		case <-p.gathered:
		case <-time.After(5 * time.Second):
		}
		panic("backend exploded")
	}
	return platform.Simulator{}.Run(ctx, spec)
}

// TestMeasurementPanicContract: a panicking evaluation costs its own
// measurement on every admission path — evaluate answers 500 internal, a
// sweep streams the cell as failed, a tune footer carries the error — and
// strands nothing: with one worker, the same evaluate afterwards answers
// promptly, so neither the worker nor the run's flight key was lost. The
// parallel variant panics on the fan-out's helper goroutines too.
func TestMeasurementPanicContract(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parallel int
		reps     int
	}{
		{"serial", 0, 1},
		{"parallel", 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) { testMeasurementPanicContract(t, tc.parallel, tc.reps) })
	}
}

func testMeasurementPanicContract(t *testing.T, parallel, reps int) {
	pp := newPanickingPlatform(reps)
	_, ts := newTestServer(t, Options{Cache: runcache.New(pp, 0), Workers: 1, Backlog: 8, Parallel: parallel})
	evalBody := fmt.Sprintf(`{"workload":"IOR_16M","reps":%d,"seed":3}`, reps)

	resp, data := post(t, ts.URL+"/v1/evaluate", evalBody)
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("evaluate body: %v: %s", err, data)
	}
	if resp.StatusCode != http.StatusInternalServerError || env.Error.Code != CodeInternal {
		t.Fatalf("evaluate: HTTP %d code %q, want 500 %q", resp.StatusCode, env.Error.Code, CodeInternal)
	}
	if !strings.Contains(env.Error.Message, "evaluation panicked") {
		t.Errorf("evaluate message = %q, want the panic reported", env.Error.Message)
	}

	_, cells, footer := sweepLines(t, ts.URL, fmt.Sprintf(`{"workload":"IOR_16M","reps":%d,"seed":3,"grid":{"osc.max_pages_per_rpc":[512]}}`, reps))
	if footer.Failed != 1 || footer.Done != 0 || footer.Cancelled {
		t.Errorf("sweep footer = %+v, want failed:1 done:0", footer)
	}
	if len(cells) != 1 || !strings.Contains(cells[0].Error, "evaluation panicked") {
		t.Errorf("sweep cells = %+v, want one cell failed with the panic", cells)
	}

	_, _, tf := tuneLines(t, ts.URL, fmt.Sprintf(`{"workload":"IOR_16M","candidates":2,"max_reps":%d,"seed":3}`, reps))
	if !strings.Contains(tf.Error, "evaluation panicked") || tf.Cancelled {
		t.Errorf("tune footer error = %q (cancelled %v), want the panic reported", tf.Error, tf.Cancelled)
	}

	pp.armed.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/evaluate", strings.NewReader(evalBody))
	if err != nil {
		t.Fatal(err)
	}
	later, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("evaluate after the panics: %v (worker or flight key stranded?)", err)
	}
	data, _ = io.ReadAll(later.Body)
	later.Body.Close()
	if later.StatusCode != http.StatusOK {
		t.Fatalf("evaluate after the panics: HTTP %d: %s", later.StatusCode, data)
	}
}
