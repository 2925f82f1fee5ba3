// Package flight stubs the real in-flight table's surface for lockhold
// fixtures.
package flight

import "context"

// Group mimics the real flight.Group.
type Group[V any] struct{}

// Do parks a waiter until the key's owner finishes.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	return fn()
}
