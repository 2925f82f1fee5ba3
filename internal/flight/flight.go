// Package flight is the one in-flight table: concurrent calls for a key run
// the work once and share its result. The run cache uses it for one backend
// run per unique RunSpec, the peered fleet for one forward per key.
//
// A run ended by its owner's own cancellation says nothing about the work,
// so a waiter whose context is still live reruns it as the new owner. A run
// whose function panics still leaves the table: waiters get errPanicked and
// the owner re-panics. Completed runs are not retained; memoization is the
// caller's layer.
package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// errPanicked is what waiters receive when the owner's function panicked.
var errPanicked = errors.New("flight: owner panicked")

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group is a keyed in-flight table. The zero value is ready to use.
type Group[V any] struct {
	mu     sync.Mutex
	calls  map[string]*call[V]
	joined atomic.Uint64
}

// Do runs fn for key unless a run for key is in flight, in which case it
// waits for that run and returns its result. A waiter returns ctx.Err() as
// soon as its own context ends, without affecting the owner. fn runs on the
// owner's goroutine and should observe the owner's context.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			g.joined.Add(1)
			select {
			case <-c.done:
				if ctx.Err() == nil && (errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
					continue // the owner was cancelled, not us: run it again
				}
				return c.val, c.err
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		if g.calls == nil {
			g.calls = make(map[string]*call[V])
		}
		c := &call[V]{done: make(chan struct{}), err: errPanicked}
		g.calls[key] = c
		g.mu.Unlock()
		defer func() {
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn() // on a panic c.err stays errPanicked for the waiters
		return c.val, c.err
	}
}

// Joined counts the calls that waited on another caller's run, each counted
// as it starts waiting (again if it reruns and joins a later run).
func (g *Group[V]) Joined() uint64 { return g.joined.Load() }
