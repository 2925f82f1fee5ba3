package runcache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stellar/internal/lustre"
	"stellar/internal/platform"
)

// recordCache and replayCache are the -platform record and replay stacks
// over dir.
func recordCache(dir string) *Cache {
	return NewWithOptions(platform.Simulator{}, Options{Dir: dir, Traces: true})
}

func replayCache(dir string) *Cache {
	return NewWithOptions(platform.NoRecording(dir), Options{Dir: dir, Traces: true})
}

type captureSink struct {
	events []lustre.Event
}

func (c *captureSink) Record(ev lustre.Event) { c.events = append(c.events, ev) }

func TestRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := recordCache(dir)
	spec := testRunSpec(t, 5)

	liveSink := &captureSink{}
	traced := spec
	traced.Trace = liveSink
	live, err := rec.Run(context.Background(), traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(liveSink.events) == 0 {
		t.Fatal("recording swallowed the live trace events")
	}

	rep := replayCache(dir)
	replaySink := &captureSink{}
	replayTraced := spec
	replayTraced.Trace = replaySink
	replayed, err := rep.Run(context.Background(), replayTraced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.Result, replayed.Result) {
		t.Fatal("replayed result diverged from the live run")
	}
	if !reflect.DeepEqual(liveSink.events, replaySink.events) {
		t.Fatal("replayed trace events diverged from the live run")
	}

	// Untraced replay of the same key works too.
	again, err := rep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.WallTime != live.WallTime {
		t.Fatal("untraced replay diverged")
	}
	// Traced runs count as bypassed even when the directory serves them.
	if s := rec.Stats(); s.Bypassed != 1 || s.Misses != 0 {
		t.Fatalf("record stats = %+v, want the traced run bypassed", s)
	}
	if s := rep.Stats(); s.Bypassed != 1 || s.DiskHits != 1 {
		t.Fatalf("replay stats = %+v, want one bypassed and one disk hit", s)
	}
}

func TestReplayRejectsUnrecordedSpec(t *testing.T) {
	_, err := replayCache(t.TempDir()).Run(context.Background(), testRunSpec(t, 99))
	if err == nil || !strings.Contains(err.Error(), "no recording") {
		t.Fatalf("want a no-recording error, got %v", err)
	}
}

func TestReplayRejectsSinkOnUntracedRecording(t *testing.T) {
	dir := t.TempDir()
	spec := testRunSpec(t, 6)
	if _, err := recordCache(dir).Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	traced := spec
	traced.Trace = &captureSink{}
	_, err := replayCache(dir).Run(context.Background(), traced)
	if err == nil || !strings.Contains(err.Error(), "without tracing") {
		t.Fatalf("want a without-tracing error, got %v", err)
	}
}

// TestReplayRejectsMislabelledRecording: a well-formed recording filed
// under another spec's key must fail the replay, not serve the wrong
// result, and the failure names the bad recording.
func TestReplayRejectsMislabelledRecording(t *testing.T) {
	dir := t.TempDir()
	recorded, wanted := testRunSpec(t, 7), testRunSpec(t, 8)
	if _, err := recordCache(dir).Run(context.Background(), recorded); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, recorded.Key()+".json"), filepath.Join(dir, wanted.Key()+".json")); err != nil {
		t.Fatal(err)
	}
	_, err := replayCache(dir).Run(context.Background(), wanted)
	if err == nil || !strings.Contains(err.Error(), "mislabelled") {
		t.Fatalf("want a mislabelled-recording error, got %v", err)
	}
}

// TestReplayRejectsNonCanonicalRecording: a replay has no simulator to
// repair a recording in another layout than WriteRecording's, so it fails
// and names the file as corrupt.
func TestReplayRejectsNonCanonicalRecording(t *testing.T) {
	dir := t.TempDir()
	spec := testRunSpec(t, 9)
	if _, err := recordCache(dir).Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, spec.Key()+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = replayCache(dir).Run(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "corrupt recording "+spec.Key()[:12]) {
		t.Fatalf("want a corrupt-recording error naming %.12s, got %v", spec.Key(), err)
	}
}

func TestRecordKeepsTracedRecording(t *testing.T) {
	dir := t.TempDir()
	rec := recordCache(dir)
	spec := testRunSpec(t, 4)
	traced := spec
	traced.Trace = &captureSink{}
	if _, err := rec.Run(context.Background(), traced); err != nil {
		t.Fatal(err)
	}
	// A later untraced run of the same spec must not clobber the events.
	if _, err := rec.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	replaySink := &captureSink{}
	traced.Trace = replaySink
	if _, err := replayCache(dir).Run(context.Background(), traced); err != nil {
		t.Fatal(err)
	}
	if len(replaySink.events) == 0 {
		t.Fatal("untraced re-record dropped the traced recording's events")
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(matches) != 1 {
		t.Fatalf("want exactly one recording, got %d", len(matches))
	}
}

// TestRecordRepairsBadRecording: an event-less record over a torn or
// mislabelled <key>.json must replace it, so the next replay serves the
// spec instead of failing on the file the record pass kept.
func TestRecordRepairsBadRecording(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  string // file contents; %q is another spec's key
	}{
		{"torn", `{"key":%q,"result":{`},
		{"mislabelled", `{"key":%q,"seed":5}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := testRunSpec(t, 4)
			bad := fmt.Sprintf(tc.bad, testRunSpec(t, 5).Key())
			if err := os.WriteFile(filepath.Join(dir, spec.Key()+".json"), []byte(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			want, err := recordCache(dir).Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replayCache(dir).Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("replay after re-record: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed %+v, recorded %+v", got, want)
			}
		})
	}
}

// slowBackend delays the simulator's runs of one kind, traced or untraced,
// so the other kind's recording lands first. A traced run first waits for
// the untraced run to enter the backend, past its disk check, so that
// check misses whatever the traced run would have written by then.
type slowBackend struct {
	slowTraced bool
	delay      time.Duration
	untraced   chan struct{} // closed when the one untraced run enters
}

func (slowBackend) Name() string { return "slow(sim)" }

func (b slowBackend) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	if spec.Trace == nil {
		close(b.untraced)
	} else {
		<-b.untraced
	}
	if (spec.Trace != nil) == b.slowTraced {
		time.Sleep(b.delay)
	}
	return platform.Simulator{}.Run(ctx, spec)
}

// TestRacedTracedAndUntracedRunsKeepEvents: a traced and an untraced run of
// one key, raced in a Traces cache, leave a recording with events whichever
// of the two writes lands last.
func TestRacedTracedAndUntracedRunsKeepEvents(t *testing.T) {
	for _, tc := range []struct {
		name       string
		slowTraced bool
	}{
		{"untraced lands last", false},
		{"traced lands last", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cache := NewWithOptions(slowBackend{slowTraced: tc.slowTraced, delay: 50 * time.Millisecond, untraced: make(chan struct{})}, Options{Dir: dir, Traces: true})
			spec := testRunSpec(t, 12)
			traced := spec
			traced.Trace = &captureSink{}
			var wg sync.WaitGroup
			for _, s := range []platform.RunSpec{spec, traced} {
				wg.Add(1)
				go func(s platform.RunSpec) {
					defer wg.Done()
					if _, err := cache.Run(context.Background(), s); err != nil {
						t.Error(err)
					}
				}(s)
			}
			wg.Wait()
			rec, err := platform.ReadRecording(dir, spec.Key())
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Events) == 0 {
				t.Fatal("the untraced run's recording replaced the traced one's events")
			}
			if s := cache.Stats(); s.Misses != 1 || s.Bypassed != 1 || s.DiskErrs != 0 {
				t.Fatalf("stats = %+v, want one miss and one bypassed traced run", s)
			}
		})
	}
}
