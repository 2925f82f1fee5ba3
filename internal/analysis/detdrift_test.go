package analysis

import "testing"

// TestDetDrift covers the drift sources (clocks, global rand, goroutines,
// unprovable map iteration), the prover's accepted shapes, a load-bearing
// //stellar:order-independent suppression, and the unused-annotation report.
// The notdet package carries the same violations in a non-critical path and
// must produce nothing.
func TestDetDrift(t *testing.T) {
	runTest(t, DetDrift, "sim", "notdet")
}
