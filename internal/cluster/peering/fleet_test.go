package peering

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/lustre"
	"stellar/internal/platform"
	"stellar/internal/workload"
)

// countPlat is a local-platform double that counts executions and returns a
// deterministic result derived from the seed.
type countPlat struct {
	runs  atomic.Int64
	delay time.Duration
}

func (c *countPlat) Name() string { return "count" }

func (c *countPlat) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	c.runs.Add(1)
	if c.delay > 0 {
		select {
		case <-time.After(c.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &platform.RunResult{WallTime: float64(spec.Seed)}, nil
}

// testSpec builds a small deterministic trial.
func testSpec(t *testing.T, seed int64) platform.RunSpec {
	t.Helper()
	spec := cluster.Default()
	wl, err := workload.Catalog("IOR_16M", spec.TotalRanks(), 0.01)
	if err != nil {
		t.Fatalf("catalog: %v", err)
	}
	return platform.RunSpec{Spec: spec, Workload: wl, Seed: seed}
}

// specOwnedBy scans seeds until it finds a trial whose rendezvous owner is
// want; the ring hash is deterministic, so the scan is too.
func specOwnedBy(t *testing.T, f *Fleet, want string) platform.RunSpec {
	t.Helper()
	for seed := int64(1); seed < 64; seed++ {
		spec := testSpec(t, seed)
		if f.Ring().Owner(spec.Key()) == want {
			return spec
		}
	}
	t.Fatalf("no seed in [1,64) hashed to owner %s", want)
	return platform.RunSpec{}
}

// fakeOwner serves InternalRunPath the way a real node does: decode,
// rebuild, verify the key, run on its own local platform.
func fakeOwner(t *testing.T, local platform.Platform, served *atomic.Int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+InternalRunPath, func(w http.ResponseWriter, r *http.Request) {
		var req ForwardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec, err := req.RunSpec()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if spec.Key() != req.Key {
			http.Error(w, "key mismatch", http.StatusConflict)
			return
		}
		served.Add(1)
		res, err := local.Run(r.Context(), spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestFleetForwardsToOwner(t *testing.T) {
	ownerPlat := &countPlat{}
	var served atomic.Int64
	owner := fakeOwner(t, ownerPlat, &served)
	ownerAddr := owner.Listener.Addr().String()

	localPlat := &countPlat{}
	fleet, err := New("198.51.100.1:1", []string{ownerAddr}, localPlat)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := specOwnedBy(t, fleet, ownerAddr)

	res, err := fleet.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WallTime != float64(spec.Seed) {
		t.Fatalf("WallTime = %g, want %g (owner's result)", res.WallTime, float64(spec.Seed))
	}
	if n := localPlat.runs.Load(); n != 0 {
		t.Fatalf("local platform ran %d times, want 0", n)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("owner served %d runs, want 1", n)
	}
	st := fleet.Stats()
	if st.Forwards != 1 || st.ForwardErrs != 0 || st.Local != 0 {
		t.Fatalf("stats = %+v, want forwards=1 forward_errs=0 local=0", st)
	}
}

func TestFleetRunsOwnedKeysLocally(t *testing.T) {
	localPlat := &countPlat{}
	self := "198.51.100.1:1"
	fleet, err := New(self, []string{self, "198.51.100.2:1"}, localPlat)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := specOwnedBy(t, fleet, self)
	if _, err := fleet.Run(context.Background(), spec); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := localPlat.runs.Load(); n != 1 {
		t.Fatalf("local platform ran %d times, want 1", n)
	}
	if st := fleet.Stats(); st.Local != 1 || st.Forwards != 0 {
		t.Fatalf("stats = %+v, want local=1 forwards=0", st)
	}
}

func TestFleetFallsBackWhenOwnerUnreachable(t *testing.T) {
	// Reserve a port and close it so the owner address refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	localPlat := &countPlat{}
	fleet, err := New("198.51.100.1:1", []string{deadAddr}, localPlat)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := specOwnedBy(t, fleet, deadAddr)

	res, err := fleet.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run should fall back locally, got %v", err)
	}
	if res.WallTime != float64(spec.Seed) {
		t.Fatalf("WallTime = %g, want %g", res.WallTime, float64(spec.Seed))
	}
	if n := localPlat.runs.Load(); n != 1 {
		t.Fatalf("local platform ran %d times, want 1 (fallback)", n)
	}
	st := fleet.Stats()
	if st.ForwardErrs != 1 || st.Local != 1 {
		t.Fatalf("stats = %+v, want forward_errs=1 local=1", st)
	}
}

func TestFleetCancellationDoesNotFallBack(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	localPlat := &countPlat{}
	fleet, err := New("198.51.100.1:1", []string{deadAddr}, localPlat)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := specOwnedBy(t, fleet, deadAddr)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fleet.Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with dead ctx = %v, want context error", err)
	}
	if n := localPlat.runs.Load(); n != 0 {
		t.Fatalf("local platform ran %d times after cancellation, want 0", n)
	}
}

func TestFleetCoalescesDuplicateForwards(t *testing.T) {
	ownerPlat := &countPlat{delay: 100 * time.Millisecond}
	var served atomic.Int64
	owner := fakeOwner(t, ownerPlat, &served)
	ownerAddr := owner.Listener.Addr().String()

	localPlat := &countPlat{}
	fleet, err := New("198.51.100.1:1", []string{ownerAddr}, localPlat)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := specOwnedBy(t, fleet, ownerAddr)

	// Leader first so the duplicates reliably find the in-flight entry.
	var wg sync.WaitGroup
	results := make([]*platform.RunResult, 3)
	start := func(i int, delay time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			res, err := fleet.Run(context.Background(), spec)
			if err != nil {
				t.Errorf("Run[%d]: %v", i, err)
				return
			}
			results[i] = res
		}()
	}
	start(0, 0)
	start(1, 20*time.Millisecond)
	start(2, 20*time.Millisecond)
	wg.Wait()

	if n := served.Load(); n != 1 {
		t.Fatalf("owner served %d runs, want 1 (coalesced)", n)
	}
	st := fleet.Stats()
	if st.CoalescedRemote != 2 {
		t.Fatalf("coalesced_remote = %d, want 2", st.CoalescedRemote)
	}
	for i, res := range results {
		if res == nil || res.WallTime != float64(spec.Seed) {
			t.Fatalf("result[%d] = %+v, want WallTime %g", i, res, float64(spec.Seed))
		}
	}
}

func TestFleetTracedRunsStayLocal(t *testing.T) {
	ownerPlat := &countPlat{}
	var served atomic.Int64
	owner := fakeOwner(t, ownerPlat, &served)
	ownerAddr := owner.Listener.Addr().String()

	localPlat := &countPlat{}
	fleet, err := New("198.51.100.1:1", []string{ownerAddr}, localPlat)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := specOwnedBy(t, fleet, ownerAddr)
	spec.Trace = traceDiscard{}

	if _, err := fleet.Run(context.Background(), spec); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := served.Load(); n != 0 {
		t.Fatalf("owner served %d traced runs, want 0", n)
	}
	if n := localPlat.runs.Load(); n != 1 {
		t.Fatalf("local platform ran %d times, want 1", n)
	}
}

type traceDiscard struct{}

func (traceDiscard) Record(lustre.Event) {}

func TestForwardRequestRoundTrip(t *testing.T) {
	spec := testSpec(t, 9)
	spec.Config = map[string]int64{"osc.max_pages_per_rpc": 512}
	spec.Faults = lustre.FaultPlan{Seed: 3, Severity: 0.4}
	key := spec.Key()

	data, err := json.Marshal(NewForwardRequest(spec, key))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded ForwardRequest
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	rebuilt, err := decoded.RunSpec()
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	if got := rebuilt.Key(); got != key {
		t.Fatalf("rebuilt key %s != original %s", got[:12], key[:12])
	}
}

func TestNewRejectsEmptySelf(t *testing.T) {
	if _, err := New("", []string{"a:1"}, &countPlat{}); err == nil {
		t.Fatal("New with empty self should fail")
	}
}
