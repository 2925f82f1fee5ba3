package analysis

import "testing"

// TestCtxFlow covers blocking-without-context, context-not-first, and
// Background-outside-cmd, plus the negatives: the //stellar:allow-background
// wrapper, an unexported blocking helper, a correctly-threaded Drain, and a
// cmd package where everything is legal.
func TestCtxFlow(t *testing.T) {
	runTest(t, CtxFlow, "flow/inner", "cmd/flowtool")
}
