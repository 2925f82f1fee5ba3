package expert

import (
	"context"

	"testing"

	"stellar/internal/cluster"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/workload"
)

func TestConfigsExistAndValidate(t *testing.T) {
	reg := params.Lustre()
	spec := cluster.Default()
	env := params.SystemEnv(int64(spec.MemoryMBPerNode), int64(spec.OSTCount), nil)
	for _, name := range append(workload.Benchmarks(), workload.RealApps()...) {
		cfg, err := Config(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := params.Validate(cfg, reg, env); err != nil {
			t.Fatalf("%s expert config invalid: %v", name, err)
		}
	}
	if _, err := Config(reg, "unknown"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestExpertBeatsDefault verifies the expert baselines actually improve on
// defaults for every paper workload on the simulated platform.
func TestExpertBeatsDefault(t *testing.T) {
	reg := params.Lustre()
	spec := cluster.Default()
	def := params.DefaultConfig(reg)
	for _, name := range append(workload.Benchmarks(), workload.RealApps()...) {
		w, err := workload.Catalog(name, spec.TotalRanks(), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		expCfg, _ := Config(reg, name)
		d, err := lustre.Run(context.Background(), w, lustre.Options{Spec: spec, Config: def, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		e, err := lustre.Run(context.Background(), w, lustre.Options{Spec: spec, Config: expCfg, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if e.WallTime >= d.WallTime*1.02 {
			t.Errorf("%s: expert (%.3fs) not better than default (%.3fs)", name, e.WallTime, d.WallTime)
		}
	}
}
