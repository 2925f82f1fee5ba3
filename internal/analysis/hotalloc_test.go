package analysis

import "testing"

// TestHotAlloc covers the five allocation sources in //stellar:hotpath
// functions, the cold-panic-path exemption, and the negative case: an
// unannotated twin of a flagged function draws nothing.
func TestHotAlloc(t *testing.T) {
	runTest(t, HotAlloc, "hot")
}
