package server

import "testing"

// TestJobStorePrunesOldestTerminal: once a create takes the registry past
// maxJobs, the oldest terminal job is pruned, and an active job never is,
// even when it is older or when no terminal job is left to drop.
func TestJobStorePrunesOldestTerminal(t *testing.T) {
	s := newJobStore()
	jobs := make([]*Job, maxJobs)
	for i := range jobs {
		jobs[i] = s.create("evaluate", "IOR_16M")
	}
	jobs[1].start() // jobs[0] stays queued, jobs[1] runs, the rest end
	for _, j := range jobs[2:] {
		j.finish(nil, nil)
	}
	last := s.create("evaluate", "IOR_16M") // create number maxJobs+1
	if _, ok := s.get(jobs[2].id); ok {
		t.Fatalf("oldest terminal job %s survived create %d", jobs[2].id, maxJobs+1)
	}
	for _, j := range append([]*Job{jobs[0], jobs[1], jobs[3], last}, jobs[len(jobs)-1]) {
		if _, ok := s.get(j.id); !ok {
			t.Fatalf("job %s (%s) pruned", j.id, j.view().Status)
		}
	}
	if n := len(s.list("")); n != maxJobs {
		t.Fatalf("retained %d jobs, want %d", n, maxJobs)
	}

	active := newJobStore()
	for i := 0; i <= maxJobs; i++ {
		active.create("figure", "fig2")
	}
	if n := len(active.list("")); n != maxJobs+1 {
		t.Fatalf("all-active store retained %d jobs, want %d: an active job was dropped", n, maxJobs+1)
	}
}
