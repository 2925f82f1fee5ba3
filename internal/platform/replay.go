package platform

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"stellar/internal/lustre"
)

// Recording is the on-disk form of one trial: the measured result plus the
// full trace-event stream (when the original run had a sink attached), so a
// replayed run can drive the same Darshan collection the live run did. The
// same <key>.json format backs both record/replay run sets and the run
// cache's persistence directory (internal/runcache), so a recorded run set
// doubles as a warm cache and vice versa.
type Recording struct {
	Key      string         `json:"key"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Result   RunResult      `json:"result"`
	Events   []lustre.Event `json:"events,omitempty"`
}

// WriteRecording persists rec to dir as <key>.json atomically (temp file +
// rename), creating dir if needed, so a crash mid-write — or a concurrent
// writer of the same key — never leaves a torn recording behind.
func WriteRecording(dir string, rec *Recording) error {
	tmp, err := stageRecording(dir, rec)
	if err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, rec.Key+".json"))
}

// stageRecording marshals rec and writes it to a temp file in dir,
// returning the temp path ready to be renamed into place. Splitting the
// expensive part from the rename lets the Recorder serialize only the
// existing-file check and the rename while staging runs concurrently
// across keys.
func stageRecording(dir string, rec *Recording) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, rec.Key+".tmp*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// ReadRecording loads the recording for key from dir. A missing file is
// reported with os.IsNotExist-compatible wrapping so callers can distinguish
// "never recorded" from a corrupt or unreadable file. A well-formed file
// whose key field disagrees with its name is mislabelled, and serving it
// would hand back another spec's result, so it is an error too.
func ReadRecording(dir, key string) (*Recording, error) {
	data, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		return nil, err
	}
	var rec Recording
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("platform: corrupt recording %s: %w", key[:12], err)
	}
	if rec.Key != key {
		return nil, fmt.Errorf("platform: mislabelled recording %s: its key field reads %.12s", key[:12], rec.Key)
	}
	return &rec, nil
}

// Recorder is a pass-through Platform that serializes every completed trial
// to Dir as <key>.json. Runs with a trace sink are recorded with their full
// event stream, so a Replayer over the same directory reproduces them —
// including the Darshan-derived analysis — byte for byte.
type Recorder struct {
	Inner Platform
	Dir   string

	// mu serializes the existing-file check and the rename in write so a
	// concurrent event-less recording can never clobber a traced one for
	// the same key.
	mu sync.Mutex
}

// Name implements Platform.
func (r *Recorder) Name() string { return "record(" + r.Inner.Name() + ")" }

// teeSink forwards events to the live sink (if any) while keeping a copy
// for the recording. Sinks — and, more importantly, their grown event
// buffers — are recycled through teePool: a traced IOR run records tens of
// thousands of events, and re-growing that buffer per trial dominated the
// recording path's allocations.
type teeSink struct {
	next   lustre.TraceSink
	events []lustre.Event
}

var teePool = sync.Pool{New: func() any { return &teeSink{} }}

func (t *teeSink) Record(ev lustre.Event) {
	t.events = append(t.events, ev)
	if t.next != nil {
		t.next.Record(ev)
	}
}

// recycle returns the sink to the pool once its events have been persisted
// (or abandoned), keeping the buffer capacity for the next traced run.
func (t *teeSink) recycle() {
	t.next = nil
	t.events = t.events[:0]
	teePool.Put(t)
}

// Run implements Platform: execute on the inner backend, then persist.
func (r *Recorder) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	key := spec.Key()
	var tee *teeSink
	if spec.Trace != nil {
		tee = teePool.Get().(*teeSink)
		tee.next = spec.Trace
		spec.Trace = tee
	}
	res, err := r.Inner.Run(ctx, spec)
	if err != nil {
		if tee != nil {
			tee.recycle()
		}
		return nil, err
	}
	rec := Recording{Key: key, Workload: spec.Workload.Name, Seed: spec.Seed, Result: *res}
	if tee != nil {
		rec.Events = tee.events
	}
	werr := r.write(&rec)
	if tee != nil {
		// write has marshaled (and persisted) the events; the buffer is
		// free to serve the next traced run.
		tee.recycle()
	}
	if werr != nil {
		return nil, fmt.Errorf("platform: recording %s: %w", key[:12], werr)
	}
	return res, nil
}

// write persists atomically. Traced and untraced runs of one spec share a
// key and an identical result; an event-less recording never replaces a
// valid existing one, which may carry the richer traced form. A torn or
// mislabelled file is not a recording of this key, so it is replaced — a
// record pass repairs what a Replayer would reject. The marshal and
// temp-file I/O run outside the lock; only the existing-file check and the
// rename are serialized, so distinct keys still record concurrently.
func (r *Recorder) write(rec *Recording) error {
	tmp, err := stageRecording(r.Dir, rec)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(rec.Events) == 0 {
		if _, err := ReadRecording(r.Dir, rec.Key); err == nil {
			os.Remove(tmp)
			return nil
		}
	}
	return os.Rename(tmp, filepath.Join(r.Dir, rec.Key+".json"))
}

// Replayer serves trials from a directory of recordings and never touches a
// simulator or cluster: an unrecorded spec is an error, which is what makes
// it a deterministic regression oracle. If the original run carried trace
// events they are fed to the spec's sink in recorded order.
type Replayer struct {
	Dir string
}

// Name implements Platform.
func (r *Replayer) Name() string { return "replay" }

// Run implements Platform.
func (r *Replayer) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := spec.Key()
	rec, err := ReadRecording(r.Dir, key)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("platform: no recording for %s seed %d (key %s) in %s: %w",
				spec.Workload.Name, spec.Seed, key[:12], r.Dir, err)
		}
		return nil, err
	}
	if spec.Trace != nil {
		if len(rec.Events) == 0 {
			return nil, fmt.Errorf("platform: recording %s was made without tracing but the replayed run wants a sink; re-record with tracing", key[:12])
		}
		for _, ev := range rec.Events {
			spec.Trace.Record(ev)
		}
	}
	out := rec.Result
	return &out, nil
}
