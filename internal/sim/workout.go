package sim

// Workout drives one fresh Engine through a fixed synthetic event mix shaped
// like the lustre model's hot path — client chains holding an RPC-window
// slot, pushing transfers through a shared pipe, contending on a
// multi-server resource, and chaining the next operation with a think-time
// timer — and returns the number of events fired. The mix is deterministic
// (no randomness, no wall clock) so it is usable both as a benchmark body
// (BenchmarkEngineRun) and as the perf-gate measurement `stellar-bench
// -sim-passes` records into BENCH_sim.json: gate and benchmark always agree
// on what "kernel throughput" means.
//
// Roughly half the fired events are same-instant wakeups (resource grants
// dispatched at the acquisition instant), matching the share observed when
// profiling lustre runs, so the measurement covers both the time-ordered
// heap and the same-instant fast path.
func Workout(chains, opsPerChain int) uint64 {
	e := NewEngine()
	disk := NewResource(e, "disk", 4)
	nic := NewPipe(e, "nic", 1e9)
	win := NewResource(e, "win", 8)
	for c := 0; c < chains; c++ {
		ch := &workoutChain{
			e: e, disk: disk, nic: nic, win: win,
			ops:  opsPerChain,
			size: float64(4096 * (c%7 + 1)),
			svc:  1e-4 * float64(c%5+1),
		}
		// Build the per-stage closures once per chain: the kernel itself
		// allocates nothing per event, and the model side shouldn't either,
		// so steady-state allocs/event measures the kernel.
		ch.served = func() {
			ch.win.Release()
			ch.i++
			if ch.i < ch.ops {
				ch.e.After(1e-5, ch.start)
			}
		}
		ch.sent = func() { ch.disk.Use(ch.svc, ch.served) }
		ch.entered = func() { ch.nic.Send(ch.size, ch.sent) }
		ch.start = func() { ch.win.Acquire(ch.entered) }
		e.At(0, ch.start)
	}
	e.Run()
	return e.Fired()
}

type workoutChain struct {
	e    *Engine
	disk *Resource
	nic  *Pipe
	win  *Resource

	i, ops    int
	size, svc float64

	start, entered, sent, served func()
}
