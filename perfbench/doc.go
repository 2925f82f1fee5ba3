// Command perfbench is the repository's benchmark. It times the two paths
// STELLAR's users wait on, the evaluation service (/v1/evaluate) and the
// agentic tuning loop (core.Engine.Tune), end to end and layer by layer.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload evaluate-warm --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all   # every metric of every workload, by name and unit
//
// Every input is generated from --seed. The last line of standard output is
// one JSON object: correct, attempted, failed and metrics. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// BENCHMARK.json at the root lists both with their units and bounds.
//
// # Workloads
//
// All three run in this one process, on GOMAXPROCS cores, at scale 0.05.
//
// evaluate-warm: an in-process server.New with 2 workers on loopback,
// driven by an open loop of Poisson arrivals at 300/s over 2 connections.
// Requests pick among 16 specs with Zipf(1.1) popularity. The specs are the
// eight paper families, each at defaults and at one tuned config, at 8
// reps. Set-up simulates all 16, so every rep is a memory hit: workload
// build, config render, key hash, cache lookup, HTTP and marshal do all the
// work. Bypassed: lustre, sim, disk reads, llm, agents, rag.
//
// evaluate-disk: the same server over a write-through cache dir whose
// memory tier holds 64 results against the 1024 that set-up persists by
// simulating 128 specs of the light families IOR_16M, AMReX and
// MACSio_512K. Uniform picks at 350/s make nearly every rep a disk read,
// and light families keep workload build from masking it. Set-up is the
// cold serving path. Bypassed: lustre, sim, llm, agents, rag.
//
// agent-tune: a closed loop with one client. Each op is one Tune of one of
// the five Fig-5 benchmarks in round-robin order, on a fresh engine and a
// fresh runcache over one shared write-through dir, as one
// `stellar -cache-dir` invocation does. Op seeds never repeat, so trials
// miss and write through. Set-up is the dir plus two warm-up rounds over
// the five families on fixed seeds. The simulator and lustre model dominate;
// it is the only workload that runs rag, llm, agents and darshan, and it has
// no HTTP in front.
//
// # End-to-end metrics
//
// p50_ms is the median op latency; open-loop ops are timed from their due
// time, so a stall is charged to every op it delays. tail_ms is the highest
// percentile with at least ten samples beyond it; when the run has at least
// three windows of 300 ops, it is the median of the tails of as many such
// windows as fit (each a p90), so a burst of outside load does not set it.
// The run prints which percentile and how many samples lie beyond. A failed or
// refused op counts as failed and as missing the tail. cpu_ms_per_op is the process's user
// and system CPU over the measured phase per completed op, client work and
// GC included; 0 if no op completed. heap_live_mb is the live heap after
// forced collections at the end of the measured phase. setup_s is the
// median of five set-ups, each from scratch to the first measured op.
//
// The HTTP workloads send a fixed number of requests, rate times seconds,
// and end set-up and the measured phase with a fixed pass over their specs;
// agent-tune runs a fixed number of tunes. The program keeps the last 128
// keyed workloads in a digest memo, so without this the live heap would
// depend on how many requests a run happened to send.
//
// # Per-layer metrics
//
// A separate traced run reports them, timing calls into each module's
// public functions from outside. A layer a workload bypasses reads 0 there.
//
//   - server.overhead_ms: the traced run's p50 minus the median summed time
//     of a replay of the same requests through the calls the evaluate
//     handler makes, in order, against the server's own cache: decode
//     (server.decode_us), workload.Catalog (workload.catalog_ms and
//     catalog_alloc_mb), procfs render (procfs.render_us), Cache.Run per
//     rep, and marshal (server.marshal_us). It covers HTTP, pool admission
//     and the job registry. Moves p50_ms and tail_ms on the HTTP workloads.
//   - platform.key_us: keying one request's reps on a fresh build, as the
//     handler's first touch does; Cache.Run performs it, so it is part of
//     runcache.hit_us. platform.read_us: one ReadRecording. Both move p50_ms
//     on evaluate-disk, key_us on evaluate-warm too.
//   - runcache.hit_us and runcache.disk_hit_us: one Cache.Run served from
//     memory or disk; runcache.mem_hit_ratio and disk_hit_ratio over the
//     measured phase; runcache.retained_kb_per_entry, live-heap growth per
//     result set-up simulated (it moves heap_live_mb on evaluate-warm);
//     runcache.miss_overhead_ms, Run minus the simulation it wraps (key plus
//     write-through) on agent-tune.
//   - lustre.run_ms, sim.events_per_run and sim.mevents_per_s: from timing
//     platform decorators around the cache and sim.TotalFired deltas. They
//     move p50_ms and cpu_ms_per_op on agent-tune and setup_s on the HTTP
//     workloads, and read 0 in the HTTP workloads' measured phases.
//   - darshan.traced_run_ms (the traced initial run, which bypasses the
//     cache), llm.calls_per_tune, llm.tokens_per_tune (llm.RequestTokens
//     plus llm.ResponseTokens), llm.call_ms, agents.self_ms (Tune minus llm
//     minus platform time), agents.attempts_per_tune and rag.extract_ms: a
//     timing llm.Client and platform decorators on agent-tune only.
//   - process.allocs_per_op and process.gc_cpu_frac over the measured phase.
//   - loadgen.late_p50_ms and late_max_ms: how late the generator sent. If
//     they rise, the client is saturated and latencies measure it.
//   - trace.overhead_ms: on agent-tune, traced ops alternate with untraced
//     ones; this is the difference of their p50s.
//
// # Output checks
//
// A run is correct only if every HTTP reply is a 200 byte-identical to the
// body set-up got when it first simulated the spec (the RunSpec determinism
// contract), every tune ends within 5 attempts with best speedup >= 1, and
// the warm-up tunes reproduce golden_agent.json: per family and round the
// best config, speedup and tokens. `go test -run TestAgentGolden -update`
// rewrites it after an intended change.
//
// # Deliberately unmeasured
//
//   - Peering forwards: they need more than one serve node, and a
//     multi-process cluster on two cores measures the scheduler.
//   - Pool queue wait: two connections against two workers never queue.
//   - /v1/tune and /v1/sweeps: thin layers over the same EvaluateBatch path.
//   - Rate sweeps: each HTTP workload runs at one fixed rate, since every
//     change runs each workload many times.
package main
