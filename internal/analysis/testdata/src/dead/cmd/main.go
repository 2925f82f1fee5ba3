// Package main is the deadcode fixture's program: its main is the root.
package main

import (
	"flag"

	"dead"
)

func main() {
	dead.Used()
	_ = dead.ByValue()
	var c dead.Counter
	flag.Var(&c, "n", "a counter")
	var s dead.Shape = dead.Square{Side: 2}
	_ = s.Area()
	b := &dead.Box[int]{}
	_ = b.Get()
	dead.Stale()
}
