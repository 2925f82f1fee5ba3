// Package dead is the deadcode fixture's library; dead/cmd is its program
// and deadext stands in for a nested module.
package dead

import (
	"fmt"
	"strconv"
)

// registry's initializer is a root: one is live through a function value.
var registry = map[string]func() int{"one": one}

func one() int { return 1 }

func init() { fromInit() }

func fromInit() {}

// Used is called from main and keeps helper alive.
func Used() { helper() }

func helper() {}

// OnlyTested has its one caller in dead_test.go, which is never loaded.
func OnlyTested() {} // want `OnlyTested is unreachable`

func Unused() {} // want `Unused is unreachable`

// deadA calls deadB, but nothing reaches deadA.
func deadA() { deadB() } // want `deadA is unreachable`

func deadB() {} // want `deadB is unreachable`

// ByValue returns a function it never calls; that reference keeps it alive.
func ByValue() func() { return byValue }

func byValue() {}

// Counter satisfies flag.Value, a stdlib interface nothing here names.
type Counter int

func (c *Counter) String() string { return fmt.Sprint(int(*c)) }

func (c *Counter) Set(s string) error {
	n, err := strconv.Atoi(s)
	*c = Counter(n)
	return err
}

func (c *Counter) Reset() { *c = 0 } // want `Counter.Reset is unreachable`

// Shape is a module interface: Square satisfies it, Circle only shares a
// method name with a different signature.
type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (q Square) Area() float64 { return q.Side * q.Side }

func (q Square) Perimeter() float64 { return 4 * q.Side } // want `Square.Perimeter is unreachable`

type Circle struct{ R float64 }

func (c Circle) Area() int { return int(3 * c.R * c.R) } // want `Circle.Area is unreachable`

// Box is generic: main calls Get on an instantiation.
type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func (b *Box[T]) Put(v T) { b.v = v } // want `Box.Put is unreachable`

// ExtOnly is called from the nested module alone.
func ExtOnly() {}

// Oracle is kept for a reason.
//
//stellar:keep an oracle the tests of other packages call
func Oracle() {}

//stellar:keep
func NoReason() {} // want `NoReason: //stellar:keep needs a reason`

//stellar:keep main calls it, so this keep is stale
func Stale() {} // want `Stale is reachable, so its //stellar:keep is stale`

//stellar:keep on a type, where it suppresses nothing // want `unused //stellar:keep annotation`
type kept struct{}

// Oracle2 is kept, and so is what it alone calls.
//
//stellar:keep an oracle whose helper must stay with it
func Oracle2() { oracleHelper() }

func oracleHelper() {}
