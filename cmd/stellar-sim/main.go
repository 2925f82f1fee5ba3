// Command stellar-sim runs a workload on the simulated Lustre platform
// directly — no agents — under an arbitrary parameter configuration, and
// prints the measured result plus (optionally) the Darshan dump. It is the
// substrate-level tool for exploring the performance model by hand.
//
// Usage:
//
//	stellar-sim -workload IOR_16M -set lov.stripe_count=-1 -set osc.max_rpcs_in_flight=64
//	stellar-sim -workload MDWorkbench_8K -darshan
//	stellar-sim -workload IOR_16M -reps 8 -parallel 4
//	stellar-sim -workload IOR_16M -reps 8 -platform record   # serialize runs to -record-dir
//	stellar-sim -workload IOR_16M -reps 8 -platform replay   # re-print from the recorded set
//	stellar-sim -workload IOR_16M -darshan -platform record  # the recording keeps the trace events
//
// Repetitions run -parallel at a time with per-rep seeds fixed by index,
// so the printed lines are identical to a serial run. SIGINT
// cancels outstanding repetitions and aborts mid-simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"stellar/internal/cli"
	"stellar/internal/cluster"
	"stellar/internal/darshan"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/workload"
)

type setFlags []string

func (s *setFlags) String() string     { return strings.Join(*s, ",") }
func (s *setFlags) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var sets setFlags
	var (
		name     = flag.String("workload", "IOR_16M", "workload name (benchmarks, real apps, E3SM, H5Bench)")
		scale    = flag.Float64("scale", workload.DefaultScale, "workload scale factor")
		seed     = flag.Int64("seed", 1, "simulation seed")
		reps     = flag.Int("reps", 1, "repetitions (distinct seeds)")
		parallel = flag.Int("parallel", 1, "concurrent repetitions (1 = serial)")
		dumpLog  = flag.Bool("darshan", false, "print the Darshan dump of the first run")
	)
	flag.Var(&sets, "set", "parameter override name=value (repeatable)")
	pf := cli.RegisterPlatformFlags()
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = pool.WithBudget(ctx, pool.NewBudget(*parallel))

	plat, cache, err := pf.Build()
	if err != nil {
		fatal(err)
	}

	spec := cluster.Default()
	reg := params.Lustre()
	cfg := params.DefaultConfig(reg)
	for _, kv := range sets {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			fatal(fmt.Errorf("bad -set %q, want name=value", kv))
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad value in -set %q: %v", kv, err))
		}
		cfg[name] = v
	}
	env := params.SystemEnv(int64(spec.MemoryMBPerNode), int64(spec.OSTCount), cfg)
	if err := params.Validate(cfg, reg, env); err != nil {
		fmt.Fprintf(os.Stderr, "stellar-sim: warning: %v (values will be clamped)\n", err)
	}

	w, err := workload.Catalog(*name, spec.TotalRanks(), *scale)
	if err != nil {
		fatal(err)
	}

	type rep struct {
		res *lustre.Result
		col *darshan.Collector
	}
	results := make([]rep, *reps)
	err = pool.Map(ctx, *reps, func(ctx context.Context, i int) error {
		var sink lustre.TraceSink
		var col *darshan.Collector
		if *dumpLog && i == 0 {
			col = darshan.NewCollector(w.Interface)
			sink = col
		}
		out, err := plat.Run(ctx, platform.RunSpec{
			Spec: spec, Workload: w, Config: cfg, Seed: *seed + int64(i)*101, Trace: sink,
		})
		if err != nil {
			return err
		}
		results[i] = rep{res: out.Result, col: col}
		return nil
	})
	// Print whatever completed, in order, even when a later rep failed.
	for i, r := range results {
		res := r.res
		if res == nil {
			continue
		}
		fmt.Printf("run %d: wall %8.3f s   data RPCs %7d   meta RPCs %7d   stat hits %6d   RA hits %5d   RA waste %d MiB\n",
			i, res.WallTime, res.DataRPCs, res.MetaRPCs, res.StatHits, res.RAHits, res.RAWasted>>20)
		if len(res.Clamped) > 0 {
			fmt.Printf("       clamped: %s\n", strings.Join(res.Clamped, ", "))
		}
		if r.col != nil {
			fmt.Println()
			fmt.Println(r.col.Log("1", w.Name, w.NumRanks()).Dump())
		}
	}
	if err != nil {
		fatal(err)
	}
	if cache != nil && *pf.CacheStats {
		fmt.Printf("run cache [%s]: %s\n", plat.Name(), cache.Stats())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stellar-sim:", err)
	os.Exit(1)
}
