package analysis

import "testing"

// TestDeadCode covers the roots (main, init, a var initializer, a nested
// module's reference), a function-value reference, interface satisfaction
// through a stdlib and a module interface, a generic method, a caller that
// exists only in a test, an unreachable chain, and the three ways a
// //stellar:keep can be wrong: without a reason, on a reachable function,
// and on no function at all.
func TestDeadCode(t *testing.T) {
	pkgs, err := loadTestdata("testdata", "dead", "dead/cmd", "deadext")
	if err != nil {
		t.Fatal(err)
	}
	pkgs[2].Extra = true
	checkWants(t, pkgs, DeadCode)
}
