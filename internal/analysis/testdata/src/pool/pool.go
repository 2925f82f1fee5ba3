// Package pool stubs the real worker pool's surface for lockhold fixtures.
package pool

// Queue mimics the real pool.Queue.
type Queue struct{}

// Submit parks the caller until the job is admitted.
func (q *Queue) Submit(f func()) { f() }
