// Package runcache is a lockhold fixture: its path segment marks its
// mutexes as serving-tier locks.
package runcache

import (
	"context"
	"os"
	"sync"

	"flight"
	"platform"
	"pool"
)

type shard struct {
	mu    sync.Mutex
	data  map[string][]byte
	ready chan struct{}
	q     *pool.Queue
	fl    flight.Group[[]byte]
}

func (s *shard) sendHeld(v []byte) {
	s.mu.Lock()
	s.data["k"] = v
	s.ready <- struct{}{} // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

func (s *shard) recvHeld() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	<-s.ready // want `channel receive while s\.mu is held`
	return s.data["k"]
}

func (s *shard) queueHeld(f func()) {
	s.mu.Lock()
	s.q.Submit(f) // want `pool\.Queue\.Submit call while s\.mu is held`
	s.mu.Unlock()
}

// flightHeld deadlocks for real: an owner's fn takes s.mu to publish.
func (s *shard) flightHeld(ctx context.Context) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fl.Do(ctx, "k", func() ([]byte, error) { return s.data["k"], nil }) // want `flight\.Group\.Do call while s\.mu is held`
}

// flightAfter is the correct shape: check under the lock, wait after.
func (s *shard) flightAfter(ctx context.Context) ([]byte, error) {
	s.mu.Lock()
	v, ok := s.data["k"]
	s.mu.Unlock()
	if ok {
		return v, nil
	}
	return s.fl.Do(ctx, "k", func() ([]byte, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.data["k"], nil
	})
}

func (s *shard) ioHeld(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := os.ReadFile(path) // want `os\.ReadFile I/O while s\.mu is held`
	if err != nil {
		return err
	}
	s.data["k"] = b
	return platform.WriteRecording(path, b) // want `platform\.WriteRecording disk I/O while s\.mu is held`
}

// evict releases on the early path; the analyzer must not leak that branch's
// state past the if, and must still see the fall-through hold.
func (s *shard) evict(cond bool, v []byte) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	s.data["k"] = v
	s.ready <- struct{}{} // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

// publish is the correct shape: snapshot under the lock, communicate after.
func (s *shard) publish() []byte {
	s.mu.Lock()
	v := s.data["k"]
	s.mu.Unlock()
	s.ready <- struct{}{}
	return v
}
