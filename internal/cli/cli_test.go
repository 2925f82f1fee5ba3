package cli

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stellar/internal/platform"
)

// parse registers the shared flags on a fresh set and parses args, so each
// case starts from defaults without colliding on redefined flag names.
func parse(t *testing.T, args ...string) *PlatformFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	pf := RegisterPlatformFlagsOn(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return pf
}

func TestBuildCombinations(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name      string
		args      []string
		wantName  string
		wantCache bool
	}{
		{"defaults", nil, "sim", false},
		{"sim explicit", []string{"-platform", "sim"}, "sim", false},
		{"sim cached", []string{"-cache"}, "cache(sim)", true},
		{"record", []string{"-platform", "record", "-record-dir", dir}, "cache(sim)", true},
		{"record cached", []string{"-platform", "record", "-record-dir", dir, "-cache"}, "cache(sim)", true},
		{"record new dir", []string{"-platform", "record", "-record-dir", filepath.Join(dir, "new")}, "cache(sim)", true},
		{"replay", []string{"-platform", "replay", "-record-dir", dir}, "cache(replay)", true},
		{"replay cached", []string{"-platform", "replay", "-record-dir", dir, "-cache"}, "cache(replay)", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pf := parse(t, tc.args...)
			plat, cache, err := pf.Build()
			if err != nil {
				t.Fatal(err)
			}
			if plat.Name() != tc.wantName {
				t.Fatalf("platform = %q, want %q", plat.Name(), tc.wantName)
			}
			if (cache != nil) != tc.wantCache {
				t.Fatalf("cache = %v, want present=%v", cache, tc.wantCache)
			}
			if cache != nil && platform.Platform(cache) != plat {
				t.Fatal("returned cache must be the returned platform")
			}
			// Record and replay persist to -record-dir, so -cache-stats
			// reports the one cache of the stack.
			if record := *pf.Platform != "sim"; cache != nil && cache.Stats().Persisted != record {
				t.Fatalf("persistent = %v, want %v", cache.Stats().Persisted, record)
			}
		})
	}
}

// TestBuildCacheSize: -cache-size bounds the sim cache and the record or
// replay cache alike.
func TestBuildCacheSize(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-cache"},
		{"-platform", "replay", "-record-dir", dir},
	} {
		pf := parse(t, append(args, "-cache-size", "3")...)
		_, cache, err := pf.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := cache.Stats().Capacity; got != 3 {
			t.Fatalf("%v: capacity = %d, want 3", args, got)
		}
	}
}

// TestBuildCacheDirImpliesCache: asking for persistence without -cache
// still stacks a cache — persistence without one would be pointless — and
// the built cache is write-through to the given directory.
func TestBuildCacheDirImpliesCache(t *testing.T) {
	dir := t.TempDir()
	pf := parse(t, "-cache-dir", dir)
	plat, cache, err := pf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cache == nil || plat.Name() != "cache(sim)" {
		t.Fatalf("platform = %q cache = %v, want cache(sim) with a cache", plat.Name(), cache)
	}
	if !cache.Stats().Persisted {
		t.Fatal("cache built from -cache-dir is not persistent")
	}
}

func TestBuildErrors(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown platform", []string{"-platform", "cluster"}, "unknown -platform"},
		{"replay missing dir", []string{"-platform", "replay", "-record-dir", filepath.Join(dir, "absent")}, "does not exist"},
		{"replay dir is a file", []string{"-platform", "replay", "-record-dir", file}, "not a directory"},
		{"record dir is a file", []string{"-platform", "record", "-record-dir", file}, "not a directory"},
		{"replay empty dir flag", []string{"-platform", "replay", "-record-dir", ""}, "must not be empty"},
		{"record empty dir flag", []string{"-platform", "record", "-record-dir", ""}, "must not be empty"},
		{"cache dir is a file", []string{"-cache-dir", file}, "not a directory"},
		{"record with cache dir", []string{"-platform", "record", "-record-dir", dir, "-cache-dir", dir}, "-cache-dir cannot be combined with -platform record"},
		{"replay with cache dir", []string{"-platform", "replay", "-record-dir", dir, "-cache-dir", dir}, "-cache-dir cannot be combined with -platform replay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pf := parse(t, tc.args...)
			_, _, err := pf.Build()
			if err == nil {
				t.Fatalf("Build(%v) succeeded, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestBuildDefaultRecordDirUnvalidatedForSim guards the common path: the
// default -record-dir ("runs") need not exist when the backend is sim.
func TestBuildDefaultRecordDirUnvalidatedForSim(t *testing.T) {
	pf := parse(t)
	if _, _, err := pf.Build(); err != nil {
		t.Fatalf("sim backend must not validate -record-dir: %v", err)
	}
}

func TestSplitList(t *testing.T) {
	for in, want := range map[string][]string{
		"":                 nil,
		" , ":              nil,
		"h1:1":             {"h1:1"},
		" h1:1 ,, h2:2 , ": {"h1:1", "h2:2"},
	} {
		if got := SplitList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitList(%q) = %q, want %q", in, got, want)
		}
	}
}
