package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Seed streams: each generated sequence draws from its own source, so
// adding draws to one never shifts another.
const (
	streamPicks = iota + 1
	streamGaps
	streamAgent
)

func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)))))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// zipfPicks draws n spec indexes in [0, specs) with Zipf(s) popularity:
// index 0 is the most popular. The popularity order itself is fixed, so
// every seed puts its weight on the same specs.
func zipfPicks(seed int64, n, specs int, s float64) []int {
	z := rand.NewZipf(rngFor(seed, streamPicks), s, 1, uint64(specs-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// uniformPicks draws n spec indexes uniformly from [0, specs).
func uniformPicks(seed int64, n, specs int) []int {
	r := rngFor(seed, streamPicks)
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(specs)
	}
	return out
}

// poissonDue returns the due offsets of rate*d Poisson arrivals over d:
// the arrival times of a Poisson process conditioned on its count, which
// are that many uniform draws over d in sorted order. A fixed count keeps
// the work of a run, and the state it leaves in the program, the same for
// every seed.
func poissonDue(seed int64, rate float64, d time.Duration) []time.Duration {
	r := rngFor(seed, streamGaps)
	out := make([]time.Duration, int(rate*d.Seconds()))
	for i := range out {
		out[i] = time.Duration(r.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sample is one operation's outcome. A failed op has no latency: it counts
// as missing every latency limit.
type sample struct {
	lat  time.Duration // from due time (open loop) or start (closed loop) to completion
	late time.Duration // send time minus due time; 0 in a closed loop
	ok   bool
}

// openLoop sends op i at due[i] after start over conns senders. A sender
// that is still busy when the next op falls due sends it late; the op's
// latency still counts from its due time, so a stall is charged to every op
// it delays.
func openLoop(ctx context.Context, due []time.Duration, conns int, op func(ctx context.Context, i int) bool) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				sleepUntil(at)
				sent := time.Now()
				ok := op(ctx, i)
				out[i] = sample{lat: time.Since(at), late: sent.Sub(at), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks until t. Runtime timers wake up to a millisecond
// late when the process is idle, as the poller waits in whole
// milliseconds; the nanosleep system call wakes within tens of
// microseconds, so the generator's own lateness stays small next to the
// latencies it measures. Gaps are milliseconds long, so cancellation is
// checked between sends rather than during a sleep.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// tally summarises the samples of one phase.
type tally struct {
	attempted, failed int
	p50               time.Duration
	tail              time.Duration
	tailPct           float64 // the percentile tail reports
	beyond            int     // samples above that percentile
	lateP50, lateMax  time.Duration
	windows           int // windows tail is the median over, or 0 for the whole phase
}

func (t tally) tailText() string {
	if t.windows == 0 {
		return fmt.Sprintf("p%g of the phase (%d samples beyond)", t.tailPct, t.beyond)
	}
	return fmt.Sprintf("median over %d windows of each window's p%g (%d samples beyond in each)", t.windows, t.tailPct, t.beyond)
}

// With enough ops, tail is the median of the tails of equal windows of
// the run, as many as hold minWindowOps each: about a second of the HTTP
// workloads, so each window's tail is its p90. On a shared 2-vCPU host a
// p99 is set by the host descheduling the process for milliseconds, which
// in busy spells holds up more than 1% of requests; it then measures the
// neighbours rather than the program, and moved by more than half between
// runs of the same code.
const (
	minWindowOps = 300
	minWindows   = 3
)

// tailLadder lists the percentiles tail may report, lowest first.
var tailLadder = []float64{50, 75, 90, 99, 99.9, 99.99}

// failedLatency stands in for a failed op's latency: it sorts above every
// measured latency, so a failure misses any limit.
const failedLatency = time.Duration(math.MaxInt64)

func summarize(samples []sample) tally {
	t := tally{attempted: len(samples)}
	lats := make([]time.Duration, len(samples))
	lates := make([]time.Duration, 0, len(samples))
	for i, s := range samples {
		if !s.ok {
			t.failed++
			lats[i] = failedLatency
			continue
		}
		lats[i] = s.lat
		lates = append(lates, s.late)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	sort.Slice(lates, func(i, j int) bool { return lates[i] < lates[j] })
	t.p50 = percentile(lats, 50)
	t.tailPct, t.beyond = tailPercentile(len(lats))
	t.tail = percentile(lats, t.tailPct)
	if w := len(samples) / minWindowOps; w >= minWindows {
		// The median over windows of the run: a burst of load from outside
		// the benchmark spoils the tails of the windows it falls in, not the
		// reported one.
		tails := make([]float64, w)
		for i := range tails {
			ws := summarize(samples[i*len(samples)/w : (i+1)*len(samples)/w])
			tails[i] = float64(ws.tail)
			t.tailPct, t.beyond = ws.tailPct, ws.beyond
		}
		t.windows = w
		t.tail = time.Duration(median(tails))
	}
	if len(lates) > 0 {
		t.lateP50 = percentile(lates, 50)
		t.lateMax = lates[len(lates)-1]
	}
	return t
}

// tailPercentile picks the highest ladder percentile with at least ten of
// n samples beyond it, and reports how many lie beyond. Below 20 samples
// it falls back to the median.
func tailPercentile(n int) (pct float64, beyond int) {
	pct, beyond = tailLadder[0], n-rank(n, tailLadder[0])-1
	for _, p := range tailLadder[1:] {
		b := n - rank(n, p) - 1
		if b < 10 {
			break
		}
		pct, beyond = p, b
	}
	return pct, beyond
}

// rank is the nearest-rank index of percentile p in n sorted samples. The
// slack keeps p99.9 of 20000 at rank 19980 despite 99.9 having no exact
// binary form.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n)-1e-6)) - 1
	return min(max(r, 0), n-1)
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when nothing was counted: a phase in which no op
// completed reports zeros, not values JSON cannot carry.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usPer is d in microseconds per one of n, or 0 when nothing was counted.
func usPer(d time.Duration, n float64) float64 {
	return ratio(float64(d)/float64(time.Microsecond), n)
}
