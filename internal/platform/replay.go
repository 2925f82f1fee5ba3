package platform

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"stellar/internal/lustre"
)

// Recording is the on-disk form of one trial: the measured result plus the
// full trace-event stream (when the original run had a sink attached), so a
// replayed run can drive the same Darshan collection the live run did. It
// is the one format of every run directory: a run cache's persistence
// directory, a recorded run set and a replayed one (internal/runcache), so
// a recorded run set doubles as a warm cache and vice versa. Its JSON
// layout is pinned: ReadRecording decodes exactly what json.Marshal writes,
// so a field added here, or to a type it holds, is added to decodeRecording
// too.
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
// "never recorded" from a corrupt or unreadable file. A file whose key field
// disagrees with its name is mislabelled, and serving it would hand back
// another spec's result, so it is an error too; the key is checked before
// anything else is decoded.
//
// A disk-tier hit costs one open and one pass: the file is read into a
// pooled buffer and decoded by a reader of exactly the layout
// WriteRecording's json.Marshal writes (field order, no whitespace, no
// trailing newline, null versus [] slices, omitted empty clamped and events
// lists). Any other layout is corrupt, even where it is valid JSON of the
// same value: reformatted, reordered, with unknown fields or a trailing
// newline. A run cache repairs such a file — it counts a disk error,
// re-simulates and rewrites the canonical form — while a replay fails and
// names it.
func ReadRecording(dir, key string) (*Recording, error) {
	bp, err := readFile(filepath.Join(dir, key+".json"))
	if err != nil {
		return nil, err
	}
	rec, err := decodeRecording(*bp, key)
	putBuf(bp)
	return rec, err
}

// readBufs holds the buffers ReadRecording reads files into; a buffer
// grown past maxPooledBuf, by a traced recording, is dropped instead, so
// the pool never pins one.
var readBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

const maxPooledBuf = 64 << 10

// readFile reads path to EOF into a pooled buffer, which the caller hands
// back with putBuf. It opens the file non-blocking, which a regular file
// ignores, so os skips switching the descriptor's mode and back, and it
// never stats: the buffer grows as the reads need.
func readFile(path string) (*[]byte, error) {
	f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bp := readBufs.Get().(*[]byte)
	b := (*bp)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := f.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*bp = b
			if err == io.EOF {
				return bp, nil
			}
			putBuf(bp)
			return nil, err
		}
	}
}

// putBuf returns a buffer from readFile to the pool.
func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		*bp = (*bp)[:0]
		readBufs.Put(bp)
	}
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
