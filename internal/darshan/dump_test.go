package darshan

import (
	"strings"
	"testing"

	"stellar/internal/workload"
)

func TestDumpFormat(t *testing.T) {
	w := workload.MDWorkbench(workload.MDWorkbenchSpec{
		Ranks: 4, DirsPerRank: 1, FilesPerDir: 4, FileSize: 2 << 10, Rounds: 1,
	}, 1.0)
	log := collectFrom(t, w)
	dump := log.Dump()
	if !strings.Contains(dump, "#<module>\t<rank>\t<record>\t<counter>\t<value>") {
		t.Fatal("parser header line missing")
	}
	// Single-rank files carry their rank; counters carry the module prefix.
	if !strings.Contains(dump, "POSIX_BYTES_WRITTEN") {
		t.Fatal("counter lines missing")
	}
	lines := strings.Split(dump, "\n")
	dataLines := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "POSIX\t") {
			dataLines++
			if len(strings.Split(l, "\t")) != 5 {
				t.Fatalf("malformed line: %q", l)
			}
		}
	}
	if dataLines == 0 {
		t.Fatal("no data lines")
	}
}

func TestDumpSharedRecordRank(t *testing.T) {
	w := workload.IOR(workload.IORSpec{
		Ranks: 4, TransferSize: 1 << 20, BlockSize: 4 << 20, Blocks: 1, Seed: 2,
	}, 1.0)
	log := collectFrom(t, w)
	dump := log.Dump()
	// The shared file must be reported with rank -1.
	if !strings.Contains(dump, "POSIX\t-1\t") {
		t.Fatal("shared record not marked rank -1")
	}
}
