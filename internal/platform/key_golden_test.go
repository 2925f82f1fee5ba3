package platform

import (
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/workload"
)

// TestKeyGolden pins the hex RunSpec.Key of a handful of specs. Committed
// recordings and warm cache directories are named by these keys, so any
// change to the key encoding — however well meant — silently turns every
// stored result into a miss. A failure here means the encoding changed;
// fix the encoding, do not re-pin the table.
func TestKeyGolden(t *testing.T) {
	tuned := params.DefaultConfig(params.Lustre())
	tuned["osc.max_rpcs_in_flight"] = 32
	tuned["lov.stripe_count"] = -1
	tuned["lov.stripe_size"] = 4 << 20
	seeded := lustre.FaultPlan{Seed: 42, Severity: 0.6}
	explicit := lustre.FaultPlan{
		OSTs: []lustre.OSTFault{{OST: 1, Factor: 0.25, Window: lustre.Window{Start: 0.01, Duration: 0.02, Period: 0.1}}},
		MDS:  []lustre.MDSFault{{Factor: 3, Window: lustre.Window{Start: 0, Duration: 0.05}}},
	}
	cases := []struct {
		name    string
		spec    cluster.Spec
		family  string
		scale   float64
		tuned   bool
		seed    int64
		faults  lustre.FaultPlan
		wantHex string
	}{
		{"ior16m-defaults", testSpec(), "IOR_16M", 0.05, false, 7, lustre.FaultPlan{},
			"af3af0cbed0b4924ac1f3f7a2eb89a631fc668e248ff76a9bd1be11c487d0c6b"},
		{"ior16m-defaults-seed2", testSpec(), "IOR_16M", 0.05, false, 108, lustre.FaultPlan{},
			"9be13f9e7bda0dbc9435b09508bea1d398fd74ee4392e6e63286ddb56007df95"},
		{"ior16m-tuned", testSpec(), "IOR_16M", 0.05, true, 7, lustre.FaultPlan{},
			"ba6bbf4a425cd3cc20d22a2e8f76170fa7589fefeddee78d772105e016e1dc72"},
		{"mdw2k-defaults", testSpec(), "MDWorkbench_2K", 0.05, false, 7, lustre.FaultPlan{},
			"7ded778e2c0351cb9e3499469e3411b206132edf0800ded16f62d770102265fe"},
		{"io500-tuned-seed2", testSpec(), "IO500", 0.05, true, 108, lustre.FaultPlan{},
			"c1c4a26107198765f0a638fed9d119407c40f77f437c65847fa35f2d86527022"},
		{"amrex-default-cluster", cluster.Default(), "AMReX", 0.05, false, 1, lustre.FaultPlan{},
			"d3cf1e54175c5c44c668ae2cf403aa6d2486f06ab05ca3b79cf5b5c0553c8b21"},
		{"ior64k-seeded-faults", testSpec(), "IOR_64K", 0.05, false, 7, seeded,
			"eb0c5cab7b8bc8dc777e3dae04c806e2214787dc573a00d3bc83c3ee4ef51fd9"},
		{"ior16m-explicit-faults", testSpec(), "IOR_16M", 0.05, true, 108, explicit,
			"de805769e5d5e6f4a6bf7d1496eed920010f74f5d8545200ec9d946f33147a72"},
	}
	for _, c := range cases {
		w, err := workload.Catalog(c.family, c.spec.TotalRanks(), c.scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg := params.DefaultConfig(params.Lustre())
		if c.tuned {
			cfg = tuned
		}
		got := RunSpec{Spec: c.spec, Workload: w, Config: cfg, Seed: c.seed, Faults: c.faults}.Key()
		if got != c.wantHex {
			t.Errorf("%s: key %s, want %s", c.name, got, c.wantHex)
		}
	}

	// The same content built by hand, or copied out of a Catalog workload,
	// must key exactly like the Catalog workload itself.
	spec := testSpec()
	want := cases[0].wantHex
	hand := workload.IOR16M(spec.TotalRanks(), 0.05)
	shared, err := workload.Catalog("IOR_16M", spec.TotalRanks(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	copied := *shared
	for what, w := range map[string]*workload.Workload{"hand-built": hand, "copied": &copied} {
		rs := RunSpec{Spec: spec, Workload: w, Config: params.DefaultConfig(params.Lustre()), Seed: 7}
		if got := rs.Key(); got != want {
			t.Errorf("%s workload: key %s, want %s", what, got, want)
		}
	}
}
