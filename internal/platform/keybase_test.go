package platform

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/workload"
)

// fullKey recomputes s's key from scratch, ignoring any base it carries.
func fullKey(s RunSpec) string {
	s.base = nil
	return s.Key()
}

// refKey renders s's key bytes the plain way, sorting the config's names
// on every call: the oracle for the based path and the name memo.
func refKey(s RunSpec) string {
	b := fmt.Appendf(nil, "%#v\n", s.Spec)
	d := s.Workload.Digest()
	b = append(b, d[:]...)
	for _, k := range slices.Sorted(maps.Keys(s.Config)) {
		b = fmt.Appendf(b, "cfg %s=%d\n", k, s.Config[k])
	}
	b = fmt.Appendf(b, "seed %d\n", s.Seed)
	if !s.Faults.IsZero() {
		b = fmt.Appendf(b, "faults %#v\n", s.Faults)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkBased keys s at every seed through one base and asserts each key
// took the based path and equals the full key byte for byte, and that
// both equal the reference encoding.
func checkBased(t testing.TB, s RunSpec, seeds []int64) {
	t.Helper()
	based := s.WithKeyBase()
	for _, seed := range seeds {
		r := based
		r.Seed = seed
		if !r.base.covers(r) {
			t.Fatalf("seed %d: a base stopped covering the spec it was made from", seed)
		}
		got, full, want := r.Key(), fullKey(r), refKey(r)
		if got != full || full != want {
			t.Fatalf("seed %d: based key %s, full key %s, reference %s", seed, got, full, want)
		}
	}
}

// TestKeyNameMemo: keying configs in turn, whether they share the memoized
// name set or differ from it in size or in a name, never reuses the wrong
// order.
func TestKeyNameMemo(t *testing.T) {
	s := testRunSpec(t, 7)
	configs := []params.Config{
		{"a": 1, "b": 2},
		{"a": 1, "c": 2},
		{"b": 3, "a": -4},
		{"a": 1, "b": 2, "c": 3},
		{},
		nil,
		{"c": 9},
		params.DefaultConfig(params.Lustre()),
	}
	for _, first := range configs {
		for _, then := range configs {
			for _, cfg := range []params.Config{first, then} {
				s.Config = cfg
				if got, want := s.Key(), refKey(s); got != want {
					t.Fatalf("config %v keyed after %v: %s, want %s", cfg, first, got, want)
				}
			}
		}
	}
}

var keyBaseSeeds = []int64{0, 1, 7, 99, -1, -101, 1 << 40, math.MaxInt64, math.MinInt64}

// randomConfig draws a config over the registry's names, plus names the
// registry does not know, with values of any sign and size.
func randomConfig(rng *rand.Rand) params.Config {
	names := params.DefaultConfig(params.Lustre()).Names()
	names = append(names, "unknown.param", "z", "")
	cfg := params.Config{}
	for _, n := range names {
		if rng.IntN(2) == 0 {
			cfg[n] = rng.Int64() - math.MaxInt64/2
		}
	}
	return cfg
}

// TestKeyBaseMatchesFullKey: over empty, default and random configs,
// shared and hand-built workloads, clean and faulted plans, and seeds of
// any sign, every based key equals the full key and the reference
// encoding.
func TestKeyBaseMatchesFullKey(t *testing.T) {
	spec := testSpec()
	shared, err := workload.Catalog("IOR_16M", spec.TotalRanks(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	hand := workload.MDWorkbench2K(spec.TotalRanks(), 0.05)
	rng := rand.New(rand.NewPCG(30, 1))
	configs := []params.Config{nil, {}, params.DefaultConfig(params.Lustre())}
	for range 8 {
		configs = append(configs, randomConfig(rng))
	}
	plans := []lustre.FaultPlan{
		{},
		{Seed: 42, Severity: 0.6},
		{
			OSTs: []lustre.OSTFault{{OST: 1, Factor: 0.25, Window: lustre.Window{Start: 0.01, Duration: 0.02, Period: 0.1}}},
			MDS:  []lustre.MDSFault{{Factor: 3, Window: lustre.Window{Start: 0, Duration: 0.05}}},
		},
	}
	for _, cl := range []cluster.Spec{spec, cluster.Default()} {
		for _, w := range []*workload.Workload{shared, hand} {
			for _, cfg := range configs {
				for _, f := range plans {
					checkBased(t, RunSpec{Spec: cl, Workload: w, Config: cfg, Faults: f}, keyBaseSeeds)
				}
			}
		}
	}
}

// TestKeyBaseDetectsReplacedFields: a based copy whose cluster, workload,
// config or fault plan is replaced keys in full, never under the base it
// carries.
func TestKeyBaseDetectsReplacedFields(t *testing.T) {
	base := testRunSpec(t, 7)
	base.Faults = lustre.FaultPlan{Seed: 42, Severity: 0.6, OSTs: []lustre.OSTFault{{OST: 1, Factor: 0.5}}}
	based := base.WithKeyBase()
	other, err := workload.Catalog("IOR_64K", base.Spec.TotalRanks(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for what, edit := range map[string]func(*RunSpec){
		"cluster":        func(s *RunSpec) { s.Spec.OSTCount++ },
		"workload":       func(s *RunSpec) { s.Workload = other },
		"equal config":   func(s *RunSpec) { s.Config = s.Config.Clone() },
		"other config":   func(s *RunSpec) { s.Config = params.Config{"osc.max_rpcs_in_flight": 32} },
		"fault seed":     func(s *RunSpec) { s.Faults.Seed++ },
		"fault severity": func(s *RunSpec) { s.Faults.Severity = 0.7 },
		"ost faults":     func(s *RunSpec) { s.Faults.OSTs = []lustre.OSTFault{{OST: 2, Factor: 0.5}} },
		"mds faults":     func(s *RunSpec) { s.Faults.MDS = []lustre.MDSFault{{Factor: 2}} },
		"no faults":      func(s *RunSpec) { s.Faults = lustre.FaultPlan{} },
	} {
		r := based
		edit(&r)
		if r.base.covers(r) {
			t.Errorf("%s: the base still covers a spec whose %s was replaced", what, what)
		}
		if got, want := r.Key(), fullKey(r); got != want {
			t.Errorf("%s: key %s, full key %s", what, got, want)
		}
	}
}

// FuzzKeyBase: a based key equals the full key and the reference encoding
// for any seed, config and fault plan, on a shared or a hand-built
// workload.
func FuzzKeyBase(f *testing.F) {
	f.Add(int64(7), []byte{}, int64(0), 0.0, false)
	f.Add(int64(-1), []byte{0, 1, 2, 3}, int64(42), 0.6, true)
	f.Add(int64(math.MaxInt64), []byte{255, 128, 7}, int64(-3), 1.0, false)
	f.Add(int64(math.MinInt64), []byte{9, 9, 9, 9, 9, 9, 9, 9}, int64(1), 0.25, true)
	spec := testSpec()
	shared, err := workload.Catalog("IOR_16M", spec.TotalRanks(), 0.05)
	if err != nil {
		f.Fatal(err)
	}
	hand := workload.IOR16M(spec.TotalRanks(), 0.05)
	names := params.DefaultConfig(params.Lustre()).Names()
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, faultSeed int64, severity float64, handBuilt bool) {
		cfg := params.Config{}
		for i := 0; i+1 < len(raw); i += 2 {
			cfg[names[int(raw[i])%len(names)]] = int64(int8(raw[i+1])) << (raw[i] % 48)
		}
		w := shared
		if handBuilt {
			w = hand
		}
		s := RunSpec{Spec: spec, Workload: w, Config: cfg, Faults: lustre.FaultPlan{Seed: faultSeed, Severity: severity}}
		checkBased(t, s, []int64{seed, seed + 101, -seed})
	})
}
