package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. They are reported on every workload.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"heap_live_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, named after the module they time.
// A layer a workload bypasses reads 0 there.
var perLayer = []metricDef{
	{"server.overhead_ms", "ms"},
	{"server.decode_us", "us"},
	{"server.marshal_us", "us"},
	{"workload.catalog_ms", "ms"},
	{"workload.catalog_alloc_mb", "MiB"},
	{"procfs.render_us", "us"},
	{"platform.key_us", "us"},
	{"platform.read_us", "us"},
	{"runcache.hit_us", "us"},
	{"runcache.disk_hit_us", "us"},
	{"runcache.mem_hit_ratio", "ratio"},
	{"runcache.disk_hit_ratio", "ratio"},
	{"runcache.miss_overhead_ms", "ms"},
	{"runcache.retained_kb_per_entry", "KiB"},
	{"lustre.run_ms", "ms"},
	{"sim.events_per_run", "count"},
	{"sim.mevents_per_s", "Mevents/s"},
	{"darshan.traced_run_ms", "ms"},
	{"llm.calls_per_tune", "count"},
	{"llm.tokens_per_tune", "count"},
	{"llm.call_ms", "ms"},
	{"agents.self_ms", "ms"},
	{"agents.attempts_per_tune", "count"},
	{"rag.extract_ms", "ms"},
	{"process.allocs_per_op", "count"},
	{"process.gc_cpu_frac", "ratio"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory for cache dirs, under the working directory
}

// outcome is one run's result before it is printed.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"evaluate-warm", "evaluate-disk", "agent-tune"}

func runWorkload(ctx context.Context, name string, cfg runConfig) (*outcome, error) {
	switch name {
	case "evaluate-warm", "evaluate-disk":
		return runEvaluate(ctx, name, cfg)
	case "agent-tune":
		return runAgent(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// endToEndMetrics are an untraced run's figures: latencies of the measured
// phase, its CPU per completed op, the live heap it left and the median
// set-up time.
func endToEndMetrics(t tally, cpu time.Duration, heapMB float64, setup setupTimes) map[string]float64 {
	return map[string]float64{
		"p50_ms":        ms(t.p50),
		"tail_ms":       ms(t.tail),
		"cpu_ms_per_op": ratio(ms(cpu), float64(t.attempted-t.failed)),
		"heap_live_mb":  heapMB,
		"setup_s":       median(setup.secs),
	}
}

// render keeps exactly the metrics of the run's mode and attaches units. A
// metric the run did not produce, or one that is not a finite number, is a
// bug in the benchmark.
func (o *outcome) render(trace bool) (resultOut, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultOut{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %g", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printJSON prints v as the last line of standard output.
func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printTable(name string, r resultOut) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+", or all to print every metric of every workload")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced breakdown and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	code := run(ctx, *name, runConfig{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, work: work,
	})
	os.RemoveAll(work)
	os.Exit(code)
}

func run(ctx context.Context, name string, cfg runConfig) int {
	if name != "all" {
		o, err := runWorkload(ctx, name, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		r, err := o.render(cfg.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printTable(name, r)
		if err := printJSON(r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	// Every workload untraced, then traced: every metric by name and unit.
	all := map[string]resultOut{}
	for _, n := range workloadNames {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.trace = trace
			o, err := runWorkload(ctx, n, c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", n, err)
				return 1
			}
			r, err := o.render(trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			key := n
			if trace {
				key += "/trace"
			}
			printTable(key, r)
			all[key] = r
		}
	}
	if err := printJSON(all); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
