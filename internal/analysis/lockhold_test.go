package analysis

import "testing"

// TestLockHold covers channel ops, pool.Queue calls, and I/O under held
// runcache/server mutexes — including deferred unlocks and an early-unlock
// branch — plus the snapshot-then-communicate shapes that must stay silent.
func TestLockHold(t *testing.T) {
	runTest(t, LockHold, "runcache", "server")
}
