package sim

// Kernel equivalence suite: drives byte-program scenarios through the
// optimized kernel and the seed reference kernel (refkernel_test.go) and
// requires identical fire order, fire times, final clock, fired count,
// pending count, and per-resource statistics. The same program interpreter
// backs both the seeded table tests and FuzzEngineOrdering, so every corpus
// entry exercises the (at, seq) ordering invariant across interleaved
// At/After/Use/SetCapacity/Stop sequences — including the dense same-instant
// patterns the FIFO lane optimizes. In fixed-delay mode the interpreter also
// schedules through AfterDelay, which the reference kernel runs as After on
// the same delay, so delay-queue heads tie heap and lane entries.

import (
	"math/rand"
	"testing"
)

// kernelAPI adapts either kernel to the scenario interpreter.
type kernelAPI struct {
	at    func(t float64, fn func())
	after func(d float64, fn func())
	// afterFixed schedules fn after the fixed delay slot*progQuantum.
	afterFixed func(slot int, fn func())
	now        func() float64
	stop       func()
	run        func() float64
	fired      func() uint64
	pend       func() int
	res        []resAPI
}

type resAPI struct {
	acquire func(fn func())
	release func()
	use     func(s float64, done func())
	setCap  func(c int)
	stats   func() Stats
}

const (
	progResources = 3
	progQuantum   = 0.25 // every program time and duration is a multiple
	progSlots     = 9    // durations are 0..8 quanta
)

func newKernelAPI() kernelAPI {
	e := NewEngine()
	var delays [progSlots]Delay
	for i := range delays {
		delays[i] = e.NewDelay(float64(i) * progQuantum)
	}
	k := kernelAPI{
		at: e.At, after: e.After, now: e.Now, stop: e.Stop,
		run: e.Run, fired: e.Fired, pend: e.Pending,
		afterFixed: func(slot int, fn func()) { e.AfterDelay(delays[slot], fn) },
	}
	for i := 0; i < progResources; i++ {
		r := NewResource(e, "r", i+1)
		k.res = append(k.res, resAPI{
			acquire: r.Acquire, release: r.Release, use: r.Use,
			setCap: r.SetCapacity, stats: r.Stats,
		})
	}
	return k
}

func newRefKernelAPI() kernelAPI {
	e := newRefEngine()
	k := kernelAPI{
		at: e.At, after: e.After, now: e.Now, stop: e.Stop,
		run: e.Run, fired: e.Fired, pend: e.Pending,
		afterFixed: func(slot int, fn func()) { e.After(float64(slot)*progQuantum, fn) },
	}
	for i := 0; i < progResources; i++ {
		r := newRefResource(e, "r", i+1)
		k.res = append(k.res, resAPI{
			acquire: r.Acquire, release: r.Release, use: r.Use,
			setCap: r.SetCapacity, stats: r.Stats,
		})
	}
	return k
}

// fireRec is one observed event firing: which recording point, at what
// simulated time.
type fireRec struct {
	id int32
	at float64
}

type progResult struct {
	trace   []fireRec
	wall    float64
	fired   uint64
	pending int
	stats   [progResources]Stats
}

// runProgram interprets prog (4 bytes per op) against k. Times and
// durations are quantized to 0.25s so distinct ops collide on the same
// instant constantly — the regime where ordering bugs would show. With
// fixed set, an op whose kind byte has bit 3 set schedules its follow-ups
// (timed release, chain, burst) through the fixed-delay path instead of
// After, so both paths interleave on the same delays; without it the bit
// is ignored, as it always was.
func runProgram(k kernelAPI, prog []byte, fixed bool) progResult {
	var out progResult
	nextID := int32(0)
	rec := func(id int32) { out.trace = append(out.trace, fireRec{id, k.now()}) }
	for len(prog) >= 4 {
		t := float64(prog[0]%41) * progQuantum
		kind := prog[1] % 8
		viaDelay := fixed && prog[1]&8 != 0
		r := k.res[int(prog[2])%progResources]
		slot := int(prog[3] % progSlots)
		dur := float64(slot) * progQuantum
		capN := int(prog[3]%3) + 1
		prog = prog[4:]
		nextID++
		id := nextID
		later := func(slot int, fn func()) {
			if viaDelay {
				k.afterFixed(slot, fn)
			} else {
				k.after(float64(slot)*progQuantum, fn)
			}
		}
		switch kind {
		case 0: // plain timed event
			k.at(t, func() { rec(id) })
		case 1: // resource use with completion callback
			k.at(t, func() { r.use(dur, func() { rec(id) }) })
		case 2: // explicit acquire / timed release
			k.at(t, func() {
				r.acquire(func() {
					rec(id)
					later(slot, r.release)
				})
			})
		case 3: // chain: event schedules a follow-up
			k.at(t, func() {
				rec(id)
				later(slot, func() { rec(-id) })
			})
		case 4: // same-instant burst through the fast lane
			k.at(t, func() {
				for j := int32(0); j < 3; j++ {
					j := j
					later(0, func() { rec(id*10 + j) })
				}
			})
		case 5: // capacity change mid-run wakes waiters
			k.at(t, func() { rec(id); r.setCap(capN) })
		case 6: // stop mid-run
			k.at(t, func() { rec(id); k.stop() })
		default: // zero-service use: grant and release on one instant
			k.at(t, func() { r.use(0, func() { rec(id) }) })
		}
	}
	out.wall = k.run()
	out.fired = k.fired()
	out.pending = k.pend()
	for i := range k.res {
		out.stats[i] = k.res[i].stats()
	}
	return out
}

func compareKernels(t *testing.T, prog []byte, fixed bool) {
	t.Helper()
	got := runProgram(newKernelAPI(), prog, fixed)
	want := runProgram(newRefKernelAPI(), prog, fixed)
	if got.wall != want.wall || got.fired != want.fired || got.pending != want.pending {
		t.Fatalf("kernel diverged: wall %v vs %v, fired %d vs %d, pending %d vs %d",
			got.wall, want.wall, got.fired, want.fired, got.pending, want.pending)
	}
	if len(got.trace) != len(want.trace) {
		t.Fatalf("trace length %d vs %d", len(got.trace), len(want.trace))
	}
	for i := range got.trace {
		if got.trace[i] != want.trace[i] {
			t.Fatalf("fire %d diverged: got id=%d at=%v, want id=%d at=%v",
				i, got.trace[i].id, got.trace[i].at, want.trace[i].id, want.trace[i].at)
		}
	}
	for i := range got.stats {
		if got.stats[i] != want.stats[i] {
			t.Fatalf("resource %d stats diverged: %+v vs %+v", i, got.stats[i], want.stats[i])
		}
	}
}

// TestKernelEquivalenceRandom replays 200 random interleavings through both
// kernels.
func TestKernelEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 4*(8+rng.Intn(60)))
		rng.Read(prog)
		compareKernels(t, prog, false)
	}
}

// TestKernelEquivalenceSameInstant pins the dense same-instant regime: every
// op lands on t=0 with zero durations, so the whole run is fought out
// between the FIFO lane and heap entries on one instant.
func TestKernelEquivalenceSameInstant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prog := make([]byte, 4*120)
	rng.Read(prog)
	for i := 0; i < len(prog); i += 4 {
		prog[i] = 0   // t = 0
		prog[i+3] = 0 // dur = 0, capN = 1
	}
	compareKernels(t, prog, false)
}

// TestKernelEquivalenceContention drives deep waiter queues: all ops target
// resources immediately with tiny durations, exercising the ring-buffer
// queue against the slice-shift reference.
func TestKernelEquivalenceContention(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := make([]byte, 4*150)
	rng.Read(prog)
	for i := 0; i < len(prog); i += 4 {
		prog[i] %= 2                // arrivals bunched at t in {0, 0.25}
		prog[i+1] = 1 + prog[i+1]%2 // only use/acquire ops
	}
	compareKernels(t, prog, false)
}

// fixedTieProgram builds the fixed-delay tie regime: arrivals bunched on
// three instants, short quantized durations, and only ops that schedule
// follow-ups or contend, about half of them through the fixed-delay path.
// Delay-queue heads then tie heap heads and lane entries on one instant
// throughout the run.
func fixedTieProgram() []byte {
	rng := rand.New(rand.NewSource(11))
	prog := make([]byte, 4*160)
	rng.Read(prog)
	kinds := []byte{0, 1, 2, 3, 4, 7} // every kind but stop
	for i := 0; i < len(prog); i += 4 {
		prog[i] %= 3 // t in {0, 0.25, 0.5}
		prog[i+1] = kinds[prog[i+1]%6] | prog[i+1]&8
		prog[i+3] %= 3 // durations in {0, 0.25, 0.5}
	}
	return prog
}

// TestKernelEquivalenceFixedDelayTies pins fixed-delay scheduling against
// the reference kernel's After in the regime where the three queue kinds
// tie on (at) and only seq decides.
func TestKernelEquivalenceFixedDelayTies(t *testing.T) {
	compareKernels(t, fixedTieProgram(), true)
}

// TestKernelEquivalenceFixedDelayRandom replays the random interleavings of
// TestKernelEquivalenceRandom with the fixed-delay path switched on.
func TestKernelEquivalenceFixedDelayRandom(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 4*(8+rng.Intn(60)))
		rng.Read(prog)
		compareKernels(t, prog, true)
	}
}

// FuzzEngineOrdering feeds arbitrary byte programs through both kernels,
// once with plain After and once with the fixed-delay path switched on.
// Any reachable divergence in event order, clock, or statistics under
// random interleaved At/After/AfterDelay/Use/Stop sequences is a crash.
func FuzzEngineOrdering(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		prog := make([]byte, 4*(4+rng.Intn(40)))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Add([]byte{0, 4, 0, 0, 0, 4, 1, 0, 0, 6, 0, 0}) // bursts then stop, all at t=0
	f.Add([]byte{1, 2, 0, 4, 1, 1, 0, 0, 1, 7, 1, 0}) // acquire/use mix on one instant
	f.Add(fixedTieProgram())
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4*256 {
			prog = prog[:4*256]
		}
		compareKernels(t, prog, false)
		compareKernels(t, prog, true)
	})
}
