package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(2, func() { got = append(got, 2) })
	e.At(1, func() { got = append(got, 1) })
	e.At(3, func() { got = append(got, 3) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("end time = %g, want 3", end)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestEngineStableSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineAfterChaining(t *testing.T) {
	e := NewEngine()
	var end float64
	e.After(1, func() {
		e.After(2, func() {
			end = e.Now()
		})
	})
	e.Run()
	if end != 3 {
		t.Fatalf("chained time = %g, want 3", end)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.After(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

// TestEngineNonFiniteSchedulingPanics: NaN slips through the past-check
// (every comparison against NaN is false) and ±Inf would pin the clock at
// infinity, so both must be rejected loudly instead of corrupting the event
// heap's ordering invariant.
func TestEngineNonFiniteSchedulingPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(e *Engine)
	}{
		{"At NaN", func(e *Engine) { e.At(math.NaN(), func() {}) }},
		{"At +Inf", func(e *Engine) { e.At(math.Inf(1), func() {}) }},
		{"At -Inf", func(e *Engine) { e.At(math.Inf(-1), func() {}) }},
		{"After NaN", func(e *Engine) { e.After(math.NaN(), func() {}) }},
		{"After +Inf", func(e *Engine) { e.After(math.Inf(1), func() {}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.call(NewEngine())
		})
	}
	// Regression shape of the original bug: a NaN event admitted before
	// finite ones would fire in heap-corrupted order. Now admission itself
	// panics and the finite schedule is unaffected.
	e := NewEngine()
	fired := 0
	e.At(1, func() { fired++ })
	func() {
		defer func() { recover() }()
		e.At(math.NaN(), func() { fired += 100 })
	}()
	e.At(2, func() { fired++ })
	if end := e.Run(); end != 2 || fired != 2 {
		t.Fatalf("finite schedule disturbed: end=%g fired=%d", end, fired)
	}
}

// TestDelayRegistration: each handle schedules at its own delay, and a
// zero delay lands on the current instant like After(0).
func TestDelayRegistration(t *testing.T) {
	e := NewEngine()
	a, b, z := e.NewDelay(0.5), e.NewDelay(0.25), e.NewDelay(0)
	var got []float64
	rec := func() { got = append(got, e.Now()) }
	e.At(1, func() {
		e.AfterDelay(a, rec)
		e.AfterDelay(b, rec)
		e.AfterDelay(z, rec)
	})
	if end := e.Run(); end != 1.5 {
		t.Fatalf("end = %g, want 1.5", end)
	}
	if want := []float64{1, 1.25, 1.5}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("fire times = %v, want %v", got, want)
	}
}

// TestDelayPanics: a delay After would reject cannot be registered, and a
// fixed delay that carries the clock past the largest float panics at
// scheduling with After's message.
func TestDelayPanics(t *testing.T) {
	for _, d := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDelay(%g) did not panic", d)
				}
			}()
			NewEngine().NewDelay(d)
		}()
	}
	e := NewEngine()
	big := e.NewDelay(math.MaxFloat64)
	var msg any
	e.At(math.MaxFloat64/2, func() {
		defer func() { msg = recover() }()
		e.AfterDelay(big, func() {})
	})
	e.Run()
	if msg != "sim: scheduling at non-finite time +Inf" {
		t.Fatalf("overflowing AfterDelay: recovered %v", msg)
	}
}

// TestDelayStopResume: delay-queue entries count as pending across Stop
// and fire on the next Run.
func TestDelayStopResume(t *testing.T) {
	e := NewEngine()
	d := e.NewDelay(1)
	n := 0
	for i := 0; i < 4; i++ {
		e.At(float64(i)/4, func() {
			e.AfterDelay(d, func() {
				n++
				if n == 2 {
					e.Stop()
				}
			})
		})
	}
	e.Run()
	if n != 2 || e.Pending() != 2 {
		t.Fatalf("after Stop: fired %d, pending %d; want 2, 2", n, e.Pending())
	}
	if end := e.Run(); n != 4 || end != 1.75 || e.Pending() != 0 {
		t.Fatalf("after resume: fired %d, end %g, pending %d", n, end, e.Pending())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 100; i++ {
		e.At(float64(i), func() {
			n++
			if n == 10 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 10 {
		t.Fatalf("executed %d events after Stop, want 10", n)
	}
	if e.Pending() != 90 {
		t.Fatalf("pending = %d, want 90", e.Pending())
	}
}

func TestResourceSerialisation(t *testing.T) {
	// Capacity 1, three jobs of 2s each arriving together: completes at 2,4,6.
	e := NewEngine()
	r := NewResource(e, "disk", 1)
	var finishes []float64
	for i := 0; i < 3; i++ {
		r.Use(2, func() { finishes = append(finishes, e.Now()) })
	}
	e.Run()
	want := []float64{2, 4, 6}
	for i := range want {
		if finishes[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
	if s := r.Stats(); s.Acquires != 3 {
		t.Fatalf("acquires = %d", s.Acquires)
	}
}

func TestResourceParallelism(t *testing.T) {
	// Capacity 2, four 1s jobs: done at 1,1,2,2.
	e := NewEngine()
	r := NewResource(e, "threads", 2)
	var finishes []float64
	for i := 0; i < 4; i++ {
		r.Use(1, func() { finishes = append(finishes, e.Now()) })
	}
	e.Run()
	want := []float64{1, 1, 2, 2}
	for i := range want {
		if finishes[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
}

func TestResourceWaitAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	r.Use(3, nil)
	r.Use(3, nil) // waits 3s
	e.Run()
	s := r.Stats()
	if s.AvgWait != 1.5 {
		t.Fatalf("avg wait = %g, want 1.5", s.AvgWait)
	}
	if s.BusyTime != 6 {
		t.Fatalf("busy = %g, want 6", s.BusyTime)
	}
}

// TestResourceFinalizeBusyAccounting: busyTime only accrues on state
// changes, so a resource still holding servers when the queue drains used
// to lose the tail interval. Finalize closes it: a fully-busy resource's
// BusyTime equals the run length.
func TestResourceFinalizeBusyAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	// Hold the only server for the whole run: acquire at t=0, never release;
	// a timer at t=10 defines the run length.
	r.Acquire(func() {})
	e.At(10, func() {})
	if end := e.Run(); end != 10 {
		t.Fatalf("end = %g, want 10", end)
	}
	if s := r.Stats(); s.BusyTime != 0 {
		t.Fatalf("pre-Finalize busy = %g, want 0 (no state change since acquire)", s.BusyTime)
	}
	r.Finalize()
	if s := r.Stats(); s.BusyTime != 10 {
		t.Fatalf("busy = %g, want full run length 10", s.BusyTime)
	}
	// Finalize is idempotent: a second call at the same clock adds nothing.
	r.Finalize()
	if s := r.Stats(); s.BusyTime != 10 {
		t.Fatalf("busy after second Finalize = %g, want 10", s.BusyTime)
	}
}

// TestGateFinalize covers the wrapper path: a gate entered and never left
// accounts its hold time once finalized.
func TestGateFinalize(t *testing.T) {
	e := NewEngine()
	g := NewGate(e, "g", 2)
	g.Enter(func() {})
	e.At(4, func() {})
	e.Run()
	g.Finalize()
	if s := g.Stats(); s.BusyTime != 4 {
		t.Fatalf("busy = %g, want 4", s.BusyTime)
	}
}

// TestPipeSendRejectsNonFiniteSizes: `size < 0` alone lets NaN and +Inf
// through to the service-time computation, where they would only surface as
// a confusing non-finite-delay panic deep in the event loop (or a transfer
// that pins the clock at infinity). Send must reject them at the source.
func TestPipeSendRejectsNonFiniteSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		size float64
	}{
		{"negative", -1},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			p := NewPipe(e, "nic", 100)
			defer func() {
				if recover() == nil {
					t.Errorf("Send(%g) did not panic", tc.size)
				}
			}()
			p.Send(tc.size, nil)
		})
	}
	// A finite send after a rejected one is unaffected.
	e := NewEngine()
	p := NewPipe(e, "nic", 100)
	func() {
		defer func() { recover() }()
		p.Send(math.NaN(), nil)
	}()
	completed := false
	p.Send(50, func() { completed = true })
	if end := e.Run(); end != 0.5 || !completed {
		t.Fatalf("finite send disturbed: end=%g completed=%v", end, completed)
	}
}

// TestTotalFired: the process-wide counter advances by exactly the events a
// run fired, once the run returns.
func TestTotalFired(t *testing.T) {
	before := TotalFired()
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(float64(i), func() {})
	}
	e.Run()
	if got := TotalFired() - before; got < 5 {
		t.Fatalf("TotalFired advanced by %d, want >= 5", got)
	}
}

func TestResourceGrowCapacityWakesWaiters(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	var done []float64
	for i := 0; i < 2; i++ {
		r.Use(4, func() { done = append(done, e.Now()) })
	}
	e.At(1, func() { r.SetCapacity(2) })
	e.Run()
	// Second job starts at t=1 instead of t=4.
	if done[1] != 5 {
		t.Fatalf("second completion = %g, want 5", done[1])
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Error("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestPipeThroughput(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "nic", 100) // 100 B/s
	var last float64
	for i := 0; i < 4; i++ {
		p.Send(50, func() { last = e.Now() })
	}
	e.Run()
	if last != 2.0 {
		t.Fatalf("4x50B over 100B/s finished at %g, want 2", last)
	}
}

func TestGateWindow(t *testing.T) {
	e := NewEngine()
	g := NewGate(e, "rpc", 2)
	inFlightPeak := 0
	launch := func() {
		g.Enter(func() {
			if g.InFlight() > inFlightPeak {
				inFlightPeak = g.InFlight()
			}
			e.After(1, g.Leave)
		})
	}
	for i := 0; i < 8; i++ {
		launch()
	}
	end := e.Run()
	if inFlightPeak != 2 {
		t.Fatalf("peak in flight = %d, want 2", inFlightPeak)
	}
	if end != 4 {
		t.Fatalf("8 jobs, window 2, 1s each: end = %g, want 4", end)
	}
}

// Property: for a single-server resource, total completion time of n jobs
// equals the sum of their service times (work conservation), regardless of
// arrival pattern.
func TestResourceWorkConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewResource(e, "p", 1)
		n := 1 + rng.Intn(20)
		var sum float64
		for i := 0; i < n; i++ {
			d := 0.1 + rng.Float64()
			sum += d
			at := rng.Float64() * 0.01 // all arrive near t=0
			e.At(at, func() { r.Use(d, nil) })
		}
		end := e.Run()
		// End time should be within the largest arrival offset of the sum.
		return end >= sum && end <= sum+0.011
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a gate of width w never admits more than w concurrent holders.
func TestGateNeverExceedsWidthProperty(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		w := int(width%8) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		g := NewGate(e, "g", w)
		ok := true
		for i := 0; i < 50; i++ {
			at := rng.Float64() * 5
			hold := rng.Float64()
			e.At(at, func() {
				g.Enter(func() {
					if g.InFlight() > w {
						ok = false
					}
					e.After(hold, g.Leave)
				})
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, uint64) {
		e := NewEngine()
		r := NewResource(e, "a", 3)
		p := NewPipe(e, "b", 1e6)
		for i := 0; i < 200; i++ {
			sz := float64(100 + i*13%997)
			r.Use(0.001*float64(i%7+1), func() {
				p.Send(sz, nil)
			})
		}
		return e.Run(), e.Fired()
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%g,%d) vs (%g,%d)", t1, f1, t2, f2)
	}
}
