package experiments

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/workload"
)

// peakPlatform runs the simulator and records the most Run calls ever
// in flight at once. Each run holds its slot for a millisecond first, so
// overlapping fan-outs show up even when the simulation itself is quick.
type peakPlatform struct{ active, peak atomic.Int64 }

func (c *peakPlatform) Name() string { return "peak" }

func (c *peakPlatform) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	cur := c.active.Add(1)
	defer c.active.Add(-1)
	for p := c.peak.Load(); cur > p && !c.peak.CompareAndSwap(p, cur); p = c.peak.Load() {
	}
	time.Sleep(time.Millisecond)
	return platform.Simulator{}.Run(ctx, spec)
}

// TestBudgetIsOneBound: one budget on the root context bounds every
// fan-out beneath it together — figure arms and the reps they evaluate,
// search candidates and their reps, a Map nested in a Map — so the
// backend never sees more runs in flight than the budget.
func TestBudgetIsOneBound(t *testing.T) {
	const budget = 3
	cases := []struct {
		name string
		run  func(ctx context.Context, c Config) error
	}{
		{"fig5", func(ctx context.Context, c Config) error {
			_, err := Fig5TuningPerformance(ctx, c)
			return err
		}},
		{"search", func(ctx context.Context, c Config) error {
			c.Reps = 8
			_, err := TuningSearch(ctx, c)
			return err
		}},
		{"nested", func(ctx context.Context, c Config) error {
			c = c.Defaults()
			w, err := workload.Catalog("IOR_16M", c.Spec.TotalRanks(), c.Scale)
			if err != nil {
				return err
			}
			cfg := params.DefaultConfig(params.Lustre())
			return pool.Map(ctx, 4, func(ctx context.Context, i int) error {
				return pool.Map(ctx, 4, func(ctx context.Context, j int) error {
					_, err := c.Platform.Run(ctx, platform.RunSpec{
						Spec: c.Spec, Workload: w, Config: cfg, Seed: int64(10*i + j),
					})
					return err
				})
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := &peakPlatform{}
			cfg := unitCfg()
			cfg.Platform = cp
			ctx := pool.WithBudget(context.Background(), pool.NewBudget(budget))
			if err := tc.run(ctx, cfg); err != nil {
				t.Fatal(err)
			}
			peak := cp.peak.Load()
			if peak > budget {
				t.Fatalf("%d backend runs in flight under a budget of %d", peak, budget)
			}
			if peak < 2 {
				t.Fatalf("peak of %d runs in flight: the budget was never used", peak)
			}
		})
	}
}
