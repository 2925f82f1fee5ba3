package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"stellar/internal/runcache"
)

// JobStatus is the lifecycle state of a submitted job.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"    // admitted, waiting for a worker
	JobRunning   JobStatus = "running"   // executing on the queue
	JobDone      JobStatus = "done"      // finished successfully, result available
	JobFailed    JobStatus = "failed"    // finished with an error
	JobCancelled JobStatus = "cancelled" // aborted via DELETE or caller disconnect
)

// Job is one unit of served work: a synchronous evaluation, an asynchronous
// figure regeneration, or a streamed batch sweep. All fields are guarded by
// mu; handlers only ever see immutable JobView snapshots.
type Job struct {
	mu       sync.Mutex
	id       string
	kind     string // "evaluate" | "figure" | "sweep" | "tune"
	target   string // workload or experiment id
	status   JobStatus
	errBody  *ErrorBody
	result   json.RawMessage
	cache    *runcache.Stats // cache-activity delta attributed to this job
	done     int             // grid cells completed so far (sweep jobs)
	total    int             // grid cells overall (sweep jobs)
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
}

// JobProgress is batch progress for jobs that run in counted units (sweep
// cells, tune rounds); single-unit jobs omit the block entirely.
type JobProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobView is the unified wire form of a job: every kind — evaluate, figure,
// sweep, tune — serializes to the same shape (id, kind, target, status,
// timestamps, optional progress, error envelope on failure, result on
// success), so clients poll one resource regardless of what produced it.
type JobView struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Target   string          `json:"target"`
	Status   JobStatus       `json:"status"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Progress *JobProgress    `json:"progress,omitempty"`
	Error    *ErrorBody      `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Cache    *runcache.Stats `json:"cache,omitempty"`
}

func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.id, Kind: j.kind, Target: j.target, Status: j.status,
		Created: j.created, Error: j.errBody, Result: j.result, Cache: j.cache,
	}
	if j.total > 0 {
		v.Progress = &JobProgress{Done: j.done, Total: j.total}
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

func (j *Job) setCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
}

func (j *Job) start() {
	j.mu.Lock()
	j.status = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// setTotal records the number of cells a sweep job will run.
func (j *Job) setTotal(total int) {
	j.mu.Lock()
	j.total = total
	j.mu.Unlock()
}

// cellDone bumps a sweep job's completed-cell count.
func (j *Job) cellDone() {
	j.mu.Lock()
	j.done++
	j.mu.Unlock()
}

// finish records a successful result and the cache-activity delta observed
// while the job ran (nil for jobs that bypass the shared cache accounting).
func (j *Job) finish(result json.RawMessage, cache *runcache.Stats) {
	j.mu.Lock()
	j.status = JobDone
	j.result = result
	j.cache = cache
	j.finished = time.Now()
	j.mu.Unlock()
}

// fail records a terminal error. Context cancellation is reported as
// cancelled rather than failed: the job did not break, its caller left.
func (j *Job) fail(err error, cache *runcache.Stats) {
	j.mu.Lock()
	if isCtxErr(err) {
		j.status = JobCancelled
	} else {
		j.status = JobFailed
	}
	j.errBody = errorBodyFor(err)
	j.cache = cache
	j.finished = time.Now()
	j.mu.Unlock()
}

// requestCancel fires the job's cancel func, if any. The status transition
// to cancelled happens when the running closure observes the dead context
// and calls fail — requestCancel only pulls the trigger.
func (j *Job) requestCancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == JobDone || j.status == JobFailed || j.status == JobCancelled
}

// maxJobs bounds the retained job registry.
const maxJobs = 512

// jobStore is the bounded in-memory job registry. IDs are sequential per
// process; once the store exceeds maxJobs the oldest terminal jobs are
// pruned (active jobs are never dropped).
type jobStore struct {
	mu    sync.Mutex
	seq   int64
	jobs  map[string]*Job
	order []*Job
	// touched counts the entries the last pruneLocked looked at or moved,
	// so tests can bound what a create costs.
	touched int
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*Job)}
}

func (s *jobStore) create(kind, target string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &Job{
		id:      fmt.Sprintf("job-%d", s.seq),
		kind:    kind,
		target:  target,
		status:  JobQueued,
		created: time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.pruneLocked()
	return j
}

// pruneLocked drops the oldest terminal jobs until the store is back at
// maxJobs or only active jobs remain to drop. It walks from the front past
// the active jobs that are older than the oldest terminal one, drops that
// job, and closes the gap by shifting those active jobs one place back, so
// the order stays by creation and nothing behind the dropped job moves or
// is looked at. A create therefore costs O(1) plus the number of active
// jobs at the front, never a walk over the whole registry.
func (s *jobStore) pruneLocked() {
	excess := len(s.order) - maxJobs
	s.touched = 0
	for i := 0; excess > 0 && i < len(s.order); {
		j := s.order[i]
		s.touched++
		if !j.terminal() {
			i++
			continue
		}
		delete(s.jobs, j.id)
		s.touched += copy(s.order[1:i+1], s.order[:i])
		s.order[0] = nil
		s.order = s.order[1:]
		excess--
	}
}

func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list returns snapshots of retained jobs in creation order, filtered to
// one kind when kind is non-empty.
func (s *jobStore) list(kind string) []JobView {
	s.mu.Lock()
	jobs := make([]*Job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	out := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		if v := j.view(); kind == "" || v.Kind == kind {
			out = append(out, v)
		}
	}
	return out
}

// counts tallies retained jobs by status for /v1/stats.
func (s *jobStore) counts() map[JobStatus]int {
	out := make(map[JobStatus]int)
	for _, v := range s.list("") {
		out[v.Status]++
	}
	return out
}
