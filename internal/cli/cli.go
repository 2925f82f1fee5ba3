// Package cli holds the platform/cache wiring shared by the stellar
// command-line tools: every binary exposes the same -platform, -record-dir,
// -cache, -cache-size, and -cache-stats flags and resolves them into a
// platform.Platform stack the same way.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"stellar/internal/platform"
	"stellar/internal/runcache"
)

// PlatformFlags is the common flag set for selecting a measurement backend.
type PlatformFlags struct {
	Platform    *string
	RecordDir   *string
	Cache       *bool
	CacheSize   *int
	CacheShards *int
	CacheDir    *string
	CacheStats  *bool
}

// RegisterPlatformFlags installs the shared flags on the default flag set.
func RegisterPlatformFlags() *PlatformFlags {
	return RegisterPlatformFlagsOn(flag.CommandLine)
}

// RegisterPlatformFlagsOn installs the shared flags on fs. Commands use the
// default set via RegisterPlatformFlags; tests pass their own so parsing
// different flag combinations never collides on redefined names.
func RegisterPlatformFlagsOn(fs *flag.FlagSet) *PlatformFlags {
	return &PlatformFlags{
		Platform:    fs.String("platform", "sim", "measurement backend: sim (live simulator), record (simulate and serialize runs to -record-dir), replay (serve runs from -record-dir, no simulation)"),
		RecordDir:   fs.String("record-dir", "runs", "directory for record/replay run sets"),
		Cache:       fs.Bool("cache", false, "memoize runs in a content-addressed, sharded, singleflight-deduplicated cache"),
		CacheSize:   fs.Int("cache-size", 0, "run cache capacity in entries across all shards (0 = default)"),
		CacheShards: fs.Int("cache-shards", 0, "run cache shard count (0 = default)"),
		CacheDir:    fs.String("cache-dir", "", "write-through run cache persistence directory: completed runs land there as <key>.json and later processes warm-start from them (implies -cache; not with -platform record or replay, whose directory is -record-dir)"),
		CacheStats:  fs.Bool("cache-stats", false, "print run cache hit/miss statistics on exit"),
	}
}

// Build resolves the flags into a platform stack. The returned cache is nil
// when caching is off; when set it is the returned Platform. -cache-dir
// implies -cache (persistence without a cache would be pointless). Record
// and replay are run caches over -record-dir that keep traced runs too, so
// -cache-dir, a second directory, is rejected with them. Directories are
// validated here so a bad path fails at startup with a usable message
// instead of failing per-trial mid-run.
func (f *PlatformFlags) Build() (platform.Platform, *runcache.Cache, error) {
	var base platform.Platform = platform.Simulator{}
	opts := runcache.Options{Capacity: *f.CacheSize, Shards: *f.CacheShards, Dir: *f.CacheDir}
	switch *f.Platform {
	case "sim":
		if *f.CacheDir != "" {
			if err := checkDir("-cache-dir", *f.CacheDir, false); err != nil {
				return nil, nil, err
			}
		} else if !*f.Cache {
			return base, nil, nil
		}
	case "record", "replay":
		if *f.CacheDir != "" {
			return nil, nil, fmt.Errorf("-cache-dir cannot be combined with -platform %s, whose run cache directory is -record-dir", *f.Platform)
		}
		replay := *f.Platform == "replay"
		if err := checkDir("-record-dir", *f.RecordDir, replay); err != nil {
			return nil, nil, err
		}
		if replay {
			base = platform.NoRecording(*f.RecordDir)
		}
		opts.Dir, opts.Traces = *f.RecordDir, true
	default:
		return nil, nil, fmt.Errorf("unknown -platform %q (want sim, record, or replay)", *f.Platform)
	}
	cache := runcache.NewWithOptions(base, opts)
	return cache, cache, nil
}

// checkDir validates a directory-valued flag. Replay requires an existing
// directory (there is nothing to serve otherwise); record and cache
// persistence only require that the path, if present, is a directory —
// platform.WriteRecording creates it on first use.
func checkDir(flagName, dir string, mustExist bool) error {
	if dir == "" {
		return fmt.Errorf("%s must not be empty", flagName)
	}
	info, err := os.Stat(dir)
	switch {
	case err == nil:
		if !info.IsDir() {
			return fmt.Errorf("%s %q is not a directory", flagName, dir)
		}
		return nil
	case os.IsNotExist(err):
		if mustExist {
			return fmt.Errorf("-platform replay: record dir %q does not exist", dir)
		}
		return nil
	default:
		return fmt.Errorf("%s %q: %w", flagName, dir, err)
	}
}

// SplitList parses a comma-separated flag value such as -peers, dropping
// empty entries and surrounding whitespace; an empty value is nil.
func SplitList(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
