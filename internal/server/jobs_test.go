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

// TestJobStorePrunesPastRunningOldest: while the oldest job runs, each
// create scans past it and prunes the oldest terminal job behind it; a
// store held over maxJobs by active jobs sheds its whole excess, oldest
// first, once they end.
func TestJobStorePrunesPastRunningOldest(t *testing.T) {
	s := newJobStore()
	oldest := s.create("figure", "fig2")
	oldest.start()
	jobs := []*Job{oldest}
	for len(jobs) < maxJobs {
		j := s.create("evaluate", "IOR_16M")
		j.finish(nil, nil)
		jobs = append(jobs, j)
	}
	for i := 1; i <= 3; i++ {
		jobs = append(jobs, s.create("evaluate", "IOR_16M"))
		jobs[len(jobs)-1].finish(nil, nil)
		if _, ok := s.get(oldest.id); !ok {
			t.Fatalf("create %d pruned the running oldest job", maxJobs+i)
		}
		if _, ok := s.get(jobs[i].id); ok {
			t.Fatalf("create %d kept %s, the oldest terminal job", maxJobs+i, jobs[i].id)
		}
		if _, ok := s.get(jobs[i+1].id); !ok {
			t.Fatalf("create %d pruned %s, more than the excess", maxJobs+i, jobs[i+1].id)
		}
	}

	// A store held over maxJobs by active jobs sheds its whole excess on
	// the first create after they end.
	held := newJobStore()
	jobs = jobs[:0]
	for range maxJobs + 3 {
		jobs = append(jobs, held.create("figure", "fig2"))
	}
	for _, j := range jobs {
		j.finish(nil, nil)
	}
	held.create("evaluate", "IOR_16M")
	if n := len(held.list("")); n != maxJobs {
		t.Fatalf("retained %d jobs after the active ones ended, want %d", n, maxJobs)
	}
	for _, j := range jobs[:4] {
		if _, ok := held.get(j.id); ok {
			t.Fatalf("job %s survived, though it is among the 4 oldest terminal jobs", j.id)
		}
	}
	if _, ok := held.get(jobs[4].id); !ok {
		t.Fatalf("job %s pruned, past the excess", jobs[4].id)
	}
}

// TestJobStoreCreateIsBoundedPastRunningOldest: while the oldest job runs, a
// create past maxJobs looks at that job and the oldest terminal one behind
// it, and moves only the running one, however many jobs are retained.
func TestJobStoreCreateIsBoundedPastRunningOldest(t *testing.T) {
	s := newJobStore()
	oldest := s.create("figure", "fig2")
	oldest.start()
	for range maxJobs * 3 {
		s.create("evaluate", "IOR_16M").finish(nil, nil)
		if s.touched > 3 {
			t.Fatalf("a create with %d retained jobs touched %d entries, want at most 3", len(s.order), s.touched)
		}
	}
	if _, ok := s.get(oldest.id); !ok {
		t.Fatal("the running oldest job was pruned")
	}
}
