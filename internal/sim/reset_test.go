package sim

import "testing"

// TestResetReplaysIdentically runs the same event program twice on one
// engine with a Reset in between and requires the second run to replay the
// first exactly: same clock, same fire count, same sequence of callbacks.
// This is the contract the model layer's pooled scratch engines depend on.
func TestResetReplaysIdentically(t *testing.T) {
	program := func(e *Engine) []float64 {
		var order []float64
		res := NewResource(e, "r", 2)
		pipe := NewPipe(e, "p", 1e6)
		for i := 0; i < 8; i++ {
			i := i
			e.At(float64(i)*0.25, func() {
				res.Use(0.1*float64(i+1), func() {
					order = append(order, e.Now())
				})
				pipe.Send(float64(1000*(i+1)), func() {
					order = append(order, -e.Now())
				})
			})
		}
		order = append(order, e.Run())
		return order
	}

	e := NewEngine()
	first := program(e)
	firedFirst := e.Fired()

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Fatalf("reset engine not pristine: now=%g pending=%d fired=%d", e.Now(), e.Pending(), e.Fired())
	}
	second := program(e)
	if e.Fired() != firedFirst {
		t.Fatalf("fired count diverged after reset: %d vs %d", e.Fired(), firedFirst)
	}
	if len(first) != len(second) {
		t.Fatalf("callback counts diverged: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("callback %d diverged: %g vs %g", i, first[i], second[i])
		}
	}
}

// TestResetDiscardsPendingEvents stops a run mid-flight and checks Reset
// clears the abandoned queue entries.
func TestResetDiscardsPendingEvents(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 32; i++ {
		d := float64(i)
		e.After(d, func() {
			if e.Now() >= 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if e.Pending() == 0 {
		t.Fatal("expected pending events after Stop")
	}
	e.Reset()
	if e.Pending() != 0 {
		t.Fatalf("Reset left %d pending events", e.Pending())
	}
	// The engine must be fully usable again.
	ran := false
	e.After(1, func() { ran = true })
	if wall := e.Run(); wall != 1 || !ran {
		t.Fatalf("post-reset run broken: wall=%g ran=%v", wall, ran)
	}
}

// TestResetReusesDelayQueues: Reset drops the registrations but keeps the
// queues' ring buffers, so a recycled engine registers its delays and runs
// a fixed-delay program again without allocating.
func TestResetReusesDelayQueues(t *testing.T) {
	e := NewEngine()
	var hop, think Delay
	n := 0
	var step func()
	step = func() {
		n++
		if n%64 != 0 {
			e.AfterDelay(hop, step)
		} else if n < 1024 {
			e.AfterDelay(think, step)
		}
	}
	run := func() {
		e.Reset()
		hop, think = e.NewDelay(6e-5), e.NewDelay(2e-6)
		n = 0
		for i := 0; i < 16; i++ {
			e.AfterDelay(hop, step)
		}
		e.Run()
	}
	run() // grow the queues once
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("recycled engine allocates %.1f per run with registered delays", allocs)
	}
	if e.Pending() != 0 || n < 1024 {
		t.Fatalf("program did not drain: pending %d, steps %d", e.Pending(), n)
	}
}
