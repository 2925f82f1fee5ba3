package workload

import (
	"math"
	"sync"
	"testing"
)

// residentKeys snapshots the memo's FIFO and checks its bookkeeping: the
// FIFO and the map hold the same keys, and the op count is their sum.
func residentKeys(t *testing.T, c *memo) []sharedKey {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.fifo) != len(c.m) {
		t.Fatalf("fifo holds %d keys, map %d", len(c.fifo), len(c.m))
	}
	ops := 0
	for _, k := range c.fifo {
		w, ok := c.m[k]
		if !ok {
			t.Fatalf("fifo key %+v missing from the map", k)
		}
		ops += w.TotalOps()
	}
	if ops != c.ops {
		t.Fatalf("memo counts %d ops, residents hold %d", c.ops, ops)
	}
	if ops > c.maxOps || len(c.fifo) > c.maxEntries {
		t.Fatalf("memo holds %d workloads / %d ops, bounds %d / %d", len(c.fifo), ops, c.maxEntries, c.maxOps)
	}
	return append([]sharedKey(nil), c.fifo...)
}

// TestCatalogMemoIsBounded drives more distinct (name, scale) keys through
// Catalog than the memo may hold: it must never exceed its entry or op
// bound, and must evict oldest first, so the residents are exactly the
// most recent keys in call order.
func TestCatalogMemoIsBounded(t *testing.T) {
	names := families()
	var calls []sharedKey
	for i := 0; i < 3*maxSharedEntries; i++ {
		name := names[i%len(names)]
		scale := 0.001 + float64(i)*1e-6
		if _, err := Catalog(name, 2, scale); err != nil {
			t.Fatal(err)
		}
		calls = append(calls, sharedKey{name: name, ranks: 2, scale: math.Float64bits(scale)})
		residentKeys(t, shared)
	}
	got := residentKeys(t, shared)
	want := calls[len(calls)-maxSharedEntries:]
	if len(got) != len(want) {
		t.Fatalf("memo holds %d workloads, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resident %d is %+v, want %+v (FIFO order broken)", i, got[i], want[i])
		}
	}
}

// TestMemoOpBound fills a small memo by op count: eviction keeps the
// retained ops within the bound, oldest first, and a workload larger than
// the whole bound is sealed but never retained.
func TestMemoOpBound(t *testing.T) {
	one := IOR16M(2, 0.05).TotalOps()
	c := &memo{maxEntries: 100, maxOps: 3 * one}
	build := func() *Workload { return IOR16M(2, 0.05) }
	for i := 0; i < 5; i++ {
		c.get(sharedKey{name: "IOR_16M", ranks: 2, scale: uint64(i)}, build)
		residentKeys(t, c)
	}
	got := residentKeys(t, c)
	if len(got) != 3 || got[0].scale != 2 || got[2].scale != 4 {
		t.Fatalf("residents %+v, want the last three keys in call order", got)
	}

	big := c.get(sharedKey{name: "big", ranks: 2}, func() *Workload { return IOR64K(2, 0.05) })
	if big.TotalOps() <= c.maxOps {
		t.Fatalf("fixture too small: %d ops within the %d bound", big.TotalOps(), c.maxOps)
	}
	if big.sealed != big {
		t.Fatal("an oversized workload was not sealed")
	}
	if again := c.get(sharedKey{name: "big", ranks: 2}, func() *Workload { return IOR64K(2, 0.05) }); again == big {
		t.Fatal("an oversized workload was retained")
	}
	if got := residentKeys(t, c); len(got) != 3 {
		t.Fatalf("an oversized workload evicted residents: %+v", got)
	}
}

// TestCatalogConcurrentFirstCallersShareOnePointer races first callers for
// a key nobody has built yet: all of them must get the same workload.
func TestCatalogConcurrentFirstCallersShareOnePointer(t *testing.T) {
	const callers = 8
	start := make(chan struct{})
	got := make([]*Workload, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w, err := Catalog("IO500", 3, 0.0123)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = w
		}()
	}
	close(start)
	wg.Wait()
	for i, w := range got {
		if w == nil || w != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, w, got[0])
		}
	}
	again, err := Catalog("IO500", 3, 0.0123)
	if err != nil {
		t.Fatal(err)
	}
	if again != got[0] {
		t.Fatal("a later call did not return the shared workload")
	}
}

// TestDigestIgnoresCopies pins the digest ownership rule: a Catalog
// workload's sealed digest equals the full hash of the same content built
// by hand, and a struct copy — even one whose ops were then changed —
// hashes its own content instead of trusting the original's digest.
func TestDigestIgnoresCopies(t *testing.T) {
	w, err := Catalog("IOR_16M", 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if w.sealed != w {
		t.Fatal("Catalog returned an unsealed workload")
	}
	want := w.hash()
	if w.Digest() != want {
		t.Fatal("sealed digest differs from the full hash")
	}
	if IOR16M(4, 0.05).Digest() != want {
		t.Fatal("hand-built workload digests differently from the Catalog one")
	}
	cp := *w
	if cp.Digest() != want {
		t.Fatal("an unmodified copy digests differently")
	}
	cp.Ranks = append([][]Op(nil), w.Ranks...)
	r0 := append([]Op(nil), cp.Ranks[0]...)
	r0[0].Offset++
	cp.Ranks[0] = r0
	if cp.Digest() == want {
		t.Fatal("a modified copy reused the original's digest")
	}
	if w.hash() != want {
		t.Fatal("modifying the copy changed the shared workload")
	}
}
