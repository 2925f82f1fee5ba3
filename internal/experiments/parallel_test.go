package experiments

import (
	"context"
	"testing"

	"stellar/internal/pool"
)

// TestParallelRegenerationBitIdentical is the acceptance contract of the
// concurrent experiments layer: regenerating a figure under a budget > 1
// must render byte-for-byte the same table as the strict serial protocol,
// for identical seeds. Fig8 covers engine-arm fan-out, Fig9 covers
// model-arm fan-out, and Fig2 covers raw model-probe fan-out.
func TestParallelRegenerationBitIdentical(t *testing.T) {
	figs := []struct {
		name string
		run  func(context.Context, Config) (*Table, error)
	}{
		{"fig2", Fig2Hallucination},
		{"fig8", Fig8Ablation},
		{"fig9", Fig9ModelComparison},
	}
	for _, f := range figs {
		serialCfg := unitCfg()
		serialTbl, err := f.run(context.Background(), serialCfg)
		if err != nil {
			t.Fatalf("%s serial: %v", f.name, err)
		}
		parTbl, err := f.run(pool.WithBudget(context.Background(), pool.NewBudget(4)), unitCfg())
		if err != nil {
			t.Fatalf("%s parallel: %v", f.name, err)
		}
		if serialTbl.Render() != parTbl.Render() {
			t.Fatalf("%s parallel output diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				f.name, serialTbl.Render(), parTbl.Render())
		}
	}
}

// TestExperimentCancellation cancels a regeneration up front; every
// experiment must notice and abort rather than run to completion.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		if _, err := e.Run(ctx, unitCfg()); err == nil {
			t.Errorf("%s ignored a cancelled context", e.ID)
		}
	}
}
