// Package deadext stands in for a nested module (loaded Extra): its
// references are roots, and its own uncalled functions are never reported.
package deadext

import "dead"

func Bench() { dead.ExtOnly() }
