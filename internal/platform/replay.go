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
// replayed run can drive the same Darshan collection the live run did. It
// is the one format of every run directory: a run cache's persistence
// directory, a recorded run set and a replayed one (internal/runcache), so
// a recorded run set doubles as a warm cache and vice versa.
type Recording struct {
	Key      string         `json:"key"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Result   RunResult      `json:"result"`
	Events   []lustre.Event `json:"events,omitempty"`
}

// renameMu serializes WriteRecording's existing-file check and rename, so
// a concurrent event-less recording can never clobber a traced one.
var renameMu sync.Mutex

// WriteRecording persists rec to dir as <key>.json, creating dir if needed.
// It is the only writer of run directories. The marshal and temp-file I/O
// run outside the lock, so distinct keys write concurrently; the file then
// lands by rename, so a crash mid-write never leaves a torn recording.
//
// Traced and untraced runs of one spec share a key and an identical result,
// so a recording with events replaces anything, while an event-less one
// replaces only a missing, torn or mislabelled file: a valid existing file
// may carry the richer traced form, and a bad one is what a replay would
// reject.
func WriteRecording(dir string, rec *Recording) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, rec.Key+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	renameMu.Lock()
	defer renameMu.Unlock()
	if len(rec.Events) == 0 {
		if _, err := ReadRecording(dir, rec.Key); err == nil {
			return os.Remove(tmp.Name())
		}
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, rec.Key+".json"))
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

// NoRecording is the backend of a replay run cache, named by its
// directory: the cache serves every recorded spec itself, so any run that
// reaches this backend is unrecorded, and it fails. That is what makes
// replay a deterministic regression oracle with no simulator in the loop.
type NoRecording string

// Name implements Platform.
func (NoRecording) Name() string { return "replay" }

// Run implements Platform: it always fails.
func (dir NoRecording) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("platform: no recording for %s seed %d (key %.12s) in %s",
		spec.Workload.Name, spec.Seed, spec.Key(), string(dir))
}
