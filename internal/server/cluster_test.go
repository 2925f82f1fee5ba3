package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/cluster/peering"
	"stellar/internal/platform"
	"stellar/internal/runcache"
	"stellar/internal/workload"
)

// countingBackend wraps the real simulator and counts every run that
// actually reaches it, so cluster tests can assert "exactly one simulation
// fleet-wide" across N servers sharing one counter.
type countingBackend struct {
	inner platform.Platform
	runs  *atomic.Int64
}

func (c countingBackend) Name() string { return c.inner.Name() }

func (c countingBackend) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	c.runs.Add(1)
	return c.inner.Run(ctx, spec)
}

// startCluster boots n in-process peered servers. Each gets a real TCP
// listener (peers must be dialable for forwarding) and its own cache, but
// all share one simulation counter. Returns base URLs, the servers, and
// the counter.
func startCluster(t *testing.T, n int, opts Options) ([]string, []*Server, *atomic.Int64) {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	var sims atomic.Int64
	servers := make([]*Server, n)
	urls := make([]string, n)
	for i := range lns {
		o := opts
		if o.Scale == 0 {
			o.Scale = 0.05
		}
		o.Cache = runcache.New(countingBackend{inner: platform.Simulator{}, runs: &sims}, 0)
		o.Peers = peers
		o.Self = peers[i]
		s, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		hs := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: s.Handler()}}
		hs.Start()
		t.Cleanup(s.Close)
		t.Cleanup(hs.Close)
		servers[i] = s
		urls[i] = "http://" + peers[i]
	}
	return urls, servers, &sims
}

// TestClusterSingleflight is the 3-node contract: the same request sent
// several times to every node triggers exactly one simulation per distinct
// RunSpec cluster-wide, and every node returns the byte-identical body.
func TestClusterSingleflight(t *testing.T) {
	urls, _, sims := startCluster(t, 3, Options{Workers: 4, Backlog: 32})

	const reps = 2
	const dup = 3
	body := fmt.Sprintf(`{"workload":"IOR_16M","reps":%d,"seed":42}`, reps)
	bodies := make([][]byte, len(urls)*dup)
	var wg sync.WaitGroup
	for ni, u := range urls {
		for k := 0; k < dup; k++ {
			wg.Add(1)
			go func(slot int, u string) {
				defer wg.Done()
				resp, data := post(t, u+"/v1/evaluate", body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("node request %d: HTTP %d: %s", slot, resp.StatusCode, data)
					return
				}
				bodies[slot] = data
			}(ni*dup+k, u)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs across the fleet:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := sims.Load(); got != reps {
		t.Fatalf("fleet executed %d simulations, want exactly %d (one per distinct rep)", got, reps)
	}

	// The duplicate work travelled over the wire: with 3 nodes at least one
	// was a non-owner for each key and must have forwarded, and the owner
	// must have served those forwards.
	var forwards, served, forwardErrs uint64
	for i, u := range urls {
		_, data := get(t, u+"/v1/stats")
		var st StatsResponse
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Platform != "peers(cache(sim))" {
			t.Fatalf("node %d platform = %q, want peers(cache(sim))", i, st.Platform)
		}
		if st.Cluster == nil {
			t.Fatalf("node %d stats have no cluster block: %s", i, data)
		}
		if self := strings.TrimPrefix(u, "http://"); st.Cluster.Self != self {
			t.Fatalf("node %d cluster.self = %q, want %q", i, st.Cluster.Self, self)
		}
		if len(st.Cluster.Peers) != len(urls) {
			t.Fatalf("node %d sees %d peers, want %d", i, len(st.Cluster.Peers), len(urls))
		}
		forwards += st.Cluster.Forwards
		served += st.Cluster.ServedForwards
		forwardErrs += st.Cluster.ForwardErrs
	}
	if forwards == 0 || served == 0 {
		t.Fatalf("no cross-node traffic recorded (forwards %d, served %d) — peering inactive?", forwards, served)
	}
	if forwardErrs != 0 {
		t.Fatalf("healthy fleet recorded %d forward errors", forwardErrs)
	}
}

// TestClusterPeerDownFallsBackLocal: when a key's owner is unreachable the
// non-owner must degrade to local execution — every request still succeeds,
// and forward_errs records the degradation for operators.
func TestClusterPeerDownFallsBackLocal(t *testing.T) {
	// Reserve a real address for the "dead" peer, then close it so dials
	// fail fast with connection-refused.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := ln.Addr().String()
	var sims atomic.Int64
	s, err := New(Options{
		Scale: 0.05,
		Cache: runcache.New(countingBackend{inner: platform.Simulator{}, runs: &sims}, 0),
		Peers: []string{self, deadAddr},
		Self:  self,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
	hs.Start()
	t.Cleanup(s.Close)
	t.Cleanup(hs.Close)

	// Across several seeds some keys rendezvous onto the dead peer; those
	// must fall back locally rather than fail. Each key lands there with
	// probability 1/2 (the ports are ephemeral), so enough seeds that the
	// dead peer is never missed by chance.
	const seeds = 32
	for seed := 1; seed <= seeds; seed++ {
		body := fmt.Sprintf(`{"workload":"IOR_16M","reps":1,"seed":%d}`, seed)
		resp, data := post(t, "http://"+self+"/v1/evaluate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: HTTP %d with peer down: %s", seed, resp.StatusCode, data)
		}
	}
	st := s.fleet.Stats()
	if st.ForwardErrs == 0 {
		t.Fatalf("no forward errors recorded across %d seeds — ring never chose the dead peer? stats %+v", seeds, st)
	}
	if st.Forwards != st.ForwardErrs {
		t.Fatalf("forwards %d != forward errors %d with only a dead peer", st.Forwards, st.ForwardErrs)
	}
	if got := sims.Load(); got != seeds {
		t.Fatalf("executed %d simulations, want %d (every run served locally)", got, seeds)
	}
}

// internalSpec builds the RunSpec a forwarder would ship for one seed.
func internalSpec(t *testing.T, seed int64) platform.RunSpec {
	t.Helper()
	spec := cluster.Default()
	wl, err := workload.Catalog("IOR_16M", spec.TotalRanks(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return platform.RunSpec{Spec: spec, Workload: wl, Seed: seed}
}

// TestInternalRunEndpoint exercises the owner side of forwarding directly:
// a valid compact spec executes and returns the raw RunResult; a key that
// does not match the rebuilt spec is a 409 so catalog divergence cannot
// silently measure the wrong thing.
func TestInternalRunEndpoint(t *testing.T) {
	urls, _, sims := startCluster(t, 1, Options{})

	spec := internalSpec(t, 7)
	fw := peering.NewForwardRequest(spec, spec.Key())
	body, err := json.Marshal(fw)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, urls[0]+peering.InternalRunPath, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("internal run: HTTP %d: %s", resp.StatusCode, data)
	}
	var res platform.RunResult
	if err := json.Unmarshal(data, &res); err != nil || res.WallTime <= 0 {
		t.Fatalf("internal run result = %s (err %v)", data, err)
	}
	if sims.Load() != 1 {
		t.Fatalf("internal run executed %d simulations, want 1", sims.Load())
	}

	// Same spec, wrong key: the owner must refuse rather than run under a
	// name the forwarder will cache incorrectly. A key shorter than the
	// 12 characters the message quotes is refused the same way.
	var e struct {
		Error ErrorBody `json:"error"`
	}
	for _, key := range []string{internalSpec(t, 8).Key(), "abc"} {
		bad := peering.NewForwardRequest(spec, key)
		body, _ = json.Marshal(bad)
		resp, data = post(t, urls[0]+peering.InternalRunPath, string(body))
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("key %q mismatch: HTTP %d, want 409: %s", key, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != CodeKeyMismatch {
			t.Fatalf("key %q mismatch code = %q, want %q: %s", key, e.Error.Code, CodeKeyMismatch, data)
		}
	}

	// Unknown workload name in the compact form.
	unk := fw
	unk.Workload = "NoSuchWorkload"
	body, _ = json.Marshal(unk)
	resp, data = post(t, urls[0]+peering.InternalRunPath, string(body))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown workload: HTTP %d, want 400: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != CodeUnknownWorkload {
		t.Fatalf("unknown workload code = %q, want %q: %s", e.Error.Code, CodeUnknownWorkload, data)
	}
}

// TestInternalRunRejectsOutOfRangeScale: the forwarded scale reaches
// workload.Catalog straight from the wire, so anything outside the (0, 1.0]
// band /v1/sweeps admits is a 400 bad_request that never builds a workload
// or reaches the backend.
func TestInternalRunRejectsOutOfRangeScale(t *testing.T) {
	urls, _, sims := startCluster(t, 1, Options{})
	spec := internalSpec(t, 7)
	for _, scale := range []float64{0, -0.25, 1.5, 1e9} {
		fw := peering.NewForwardRequest(spec, spec.Key())
		fw.Scale = scale
		body, err := json.Marshal(fw)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := post(t, urls[0]+peering.InternalRunPath, string(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("scale %g: HTTP %d, want 400: %s", scale, resp.StatusCode, data)
		}
		var e struct {
			Error ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != CodeBadRequest {
			t.Fatalf("scale %g: code = %q, want %q: %s", scale, e.Error.Code, CodeBadRequest, data)
		}
	}
	if n := sims.Load(); n != 0 {
		t.Fatalf("rejected forwards ran %d simulations", n)
	}
}

// TestInternalRunDisabledWithoutPeering: a single-node server must not
// accept forwarded runs — the endpoint is part of the fleet contract, not
// the public surface.
func TestInternalRunDisabledWithoutPeering(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := internalSpec(t, 7)
	body, _ := json.Marshal(peering.NewForwardRequest(spec, spec.Key()))
	resp, data := post(t, ts.URL+peering.InternalRunPath, string(body))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("internal run without peering: HTTP %d, want 404: %s", resp.StatusCode, data)
	}
	var e struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != CodeNotFound {
		t.Fatalf("code = %q, want %q: %s", e.Error.Code, CodeNotFound, data)
	}
}

// blockingBackend parks every run until release closes, reporting each
// entry on started — the saturation fixture for queue and quota tests.
type blockingBackend struct {
	started chan struct{}
	release chan struct{}
}

func (b blockingBackend) Name() string { return "sim" }

func (b blockingBackend) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &platform.RunResult{WallTime: float64(spec.Seed)}, nil
}

// waitDepth polls until the queue holds want waiting jobs.
func waitDepth(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Depth() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", s.queue.Depth(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// postTenant is post with an X-Stellar-Tenant header.
func postTenant(t *testing.T, url, tenant, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Stellar-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestQueueFullEnvelope pins the saturation contract: a full backlog is a
// 429 with the queue_full code and a Retry-After header.
func TestQueueFullEnvelope(t *testing.T) {
	bb := blockingBackend{started: make(chan struct{}, 8), release: make(chan struct{})}
	s, ts := newTestServer(t, Options{Cache: runcache.New(bb, 0), Workers: 1, Backlog: 1})

	var wg sync.WaitGroup
	evaluate := func(seed int) {
		defer wg.Done()
		resp, data := post(t, ts.URL+"/v1/evaluate", fmt.Sprintf(`{"workload":"IOR_16M","reps":1,"seed":%d}`, seed))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("seed %d: HTTP %d: %s", seed, resp.StatusCode, data)
		}
	}
	wg.Add(1)
	go evaluate(1)
	<-bb.started // seed 1 occupies the only worker
	wg.Add(1)
	go evaluate(2)
	waitDepth(t, s, 1) // seed 2 fills the backlog

	resp, data := post(t, ts.URL+"/v1/evaluate", `{"workload":"IOR_16M","reps":1,"seed":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: HTTP %d, want 429: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	var e struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != CodeQueueFull {
		t.Fatalf("code = %q, want %q: %s", e.Error.Code, CodeQueueFull, data)
	}

	close(bb.release)
	wg.Wait()
}

// TestTenantQuotaAndStats: per-tenant admission caps one tenant's queued
// jobs without touching another's, and /v1/stats reports the per-tenant
// depths and the configured quota.
func TestTenantQuotaAndStats(t *testing.T) {
	bb := blockingBackend{started: make(chan struct{}, 8), release: make(chan struct{})}
	s, ts := newTestServer(t, Options{Cache: runcache.New(bb, 0), Workers: 1, Backlog: 8, TenantQuota: 1})

	var wg sync.WaitGroup
	evaluate := func(tenant string, seed int) {
		defer wg.Done()
		resp, data := postTenant(t, ts.URL+"/v1/evaluate", tenant,
			fmt.Sprintf(`{"workload":"IOR_16M","reps":1,"seed":%d}`, seed))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("tenant %s seed %d: HTTP %d: %s", tenant, seed, resp.StatusCode, data)
		}
	}
	wg.Add(1)
	go evaluate("alice", 1)
	<-bb.started // alice's first run occupies the worker
	wg.Add(1)
	go evaluate("alice", 2)
	waitDepth(t, s, 1) // alice now holds her full quota of queued work

	resp, data := postTenant(t, ts.URL+"/v1/evaluate", "alice", `{"workload":"IOR_16M","reps":1,"seed":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota tenant: HTTP %d, want 429: %s", resp.StatusCode, data)
	}
	var e struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != CodeQueueFull {
		t.Fatalf("code = %q, want %q: %s", e.Error.Code, CodeQueueFull, data)
	}

	// A different tenant still has headroom: the shared backlog (8) is far
	// from full, only alice's quota is.
	wg.Add(1)
	go evaluate("bob", 4)
	waitDepth(t, s, 2)

	_, data = get(t, ts.URL+"/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Queue.TenantQuota != 1 {
		t.Fatalf("stats tenant_quota = %d, want 1", st.Queue.TenantQuota)
	}
	if st.Queue.Tenants["alice"] != 1 || st.Queue.Tenants["bob"] != 1 {
		t.Fatalf("stats tenants = %v, want alice:1 bob:1", st.Queue.Tenants)
	}
	if st.Cluster != nil {
		t.Fatalf("single-node stats grew a cluster block: %s", data)
	}

	close(bb.release)
	wg.Wait()
}

// TestVersionEndpoint: /v1/version reports the API revision clients probe
// before relying on error codes, and whether this node is clustered.
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := get(t, ts.URL+"/v1/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version: HTTP %d: %s", resp.StatusCode, data)
	}
	var v VersionResponse
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.Service != "stellar-serve" || v.APIRevision != APIRevision || v.GoVersion == "" {
		t.Fatalf("version = %+v", v)
	}
	if v.Cluster {
		t.Fatalf("single-node server reports cluster=true")
	}

	urls, _, _ := startCluster(t, 1, Options{})
	_, data = get(t, urls[0]+"/v1/version")
	if err := json.Unmarshal(data, &v); err != nil || !v.Cluster {
		t.Fatalf("peered node version = %s (err %v), want cluster=true", data, err)
	}
}

// TestJobKindFilter: GET /v1/jobs?kind= narrows the listing to one kind and
// rejects unknown kinds with a structured 400.
func TestJobKindFilter(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	if resp, data := post(t, ts.URL+"/v1/evaluate", `{"workload":"IOR_16M","reps":1,"seed":5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: HTTP %d: %s", resp.StatusCode, data)
	}

	_, data := get(t, ts.URL+"/v1/jobs?kind=evaluate")
	var jobs []JobView
	if err := json.Unmarshal(data, &jobs); err != nil || len(jobs) != 1 || jobs[0].Kind != "evaluate" {
		t.Fatalf("kind=evaluate jobs = %s (err %v)", data, err)
	}
	_, data = get(t, ts.URL+"/v1/jobs?kind=tune")
	if err := json.Unmarshal(data, &jobs); err != nil || len(jobs) != 0 {
		t.Fatalf("kind=tune jobs = %s (err %v), want empty", data, err)
	}
	resp, data := get(t, ts.URL+"/v1/jobs?kind=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kind=bogus: HTTP %d, want 400: %s", resp.StatusCode, data)
	}
	var e struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != CodeBadRequest {
		t.Fatalf("kind=bogus code = %q: %s", e.Error.Code, data)
	}
}
