package darshan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/workload"
)

func collectFrom(t *testing.T, w *workload.Workload) *Log {
	t.Helper()
	spec := cluster.Default()
	spec.ClientNodes, spec.ProcsPerNode, spec.OSTCount = 2, 2, 3
	col := NewCollector(w.Interface)
	_, err := lustre.Run(context.Background(), w, lustre.Options{Spec: spec, Config: params.DefaultConfig(params.Lustre()), Seed: 1, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	return col.Log("42", w.Name, w.NumRanks())
}

func TestCollectorCounters(t *testing.T) {
	w := workload.IOR(workload.IORSpec{
		Ranks: 4, TransferSize: 1 << 20, BlockSize: 4 << 20, Blocks: 1,
		Random: false, ReadBack: true, Seed: 3,
	}, 1.0)
	log := collectFrom(t, w)
	if log.Header.NProcs != 4 || log.Header.Interface != "MPI-IO" {
		t.Fatalf("header = %+v", log.Header)
	}
	// MPI-IO workloads produce both module records for the shared file.
	var posix, mpiio *Record
	for _, r := range log.Records {
		switch r.Module {
		case "POSIX":
			posix = r
		case "MPI-IO":
			mpiio = r
		}
	}
	if posix == nil || mpiio == nil {
		t.Fatal("missing module records")
	}
	wantRead, wantWritten := w.TotalBytes()
	if posix.BytesRead != wantRead || posix.BytesWritten != wantWritten {
		t.Fatalf("posix bytes = (%d,%d), want (%d,%d)",
			posix.BytesRead, posix.BytesWritten, wantRead, wantWritten)
	}
	if posix.Ranks() != 4 {
		t.Fatalf("ranks = %d", posix.Ranks())
	}
	if posix.SeqWrites == 0 {
		t.Fatal("sequential writes not detected")
	}
	if posix.WriteSizeBuckets[4] == 0 { // 1 MiB falls in 100K-1M? no: bucket 5 is 1-4M
		if posix.WriteSizeBuckets[5] == 0 {
			t.Fatalf("1 MiB transfers not bucketed: %v", posix.WriteSizeBuckets)
		}
	}
}

func TestSizeBuckets(t *testing.T) {
	cases := map[int64]int{
		0: 0, 99: 0, 100: 1, 1023: 1, 1024: 2, 8 << 10: 2, 64 << 10: 3,
		512 << 10: 4, 2 << 20: 5, 8 << 20: 6, 64 << 20: 7, 256 << 20: 8,
	}
	for n, want := range cases {
		if got := sizeBucket(n); got != want {
			t.Errorf("sizeBucket(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFramesShape(t *testing.T) {
	w := workload.MDWorkbench(workload.MDWorkbenchSpec{
		Ranks: 4, DirsPerRank: 1, FilesPerDir: 10, FileSize: 8 << 10, Rounds: 1,
	}, 1.0)
	log := collectFrom(t, w)
	env := log.Frames()
	posix, ok := env["POSIX"]
	if !ok {
		t.Fatal("no POSIX frame")
	}
	if _, ok := env["MPI-IO"]; ok {
		t.Fatal("POSIX workload produced an MPI-IO frame")
	}
	if posix.Rows() != 40 {
		t.Fatalf("rows = %d, want 40 files", posix.Rows())
	}
	for _, col := range []string{"file", "POSIX_OPENS", "POSIX_STATS", "POSIX_BYTES_WRITTEN",
		"POSIX_F_META_TIME", "POSIX_SIZE_1K_10K_WRITE", "POSIX_RANKS"} {
		if _, ok := posix.Col(col); !ok {
			t.Errorf("missing column %s", col)
		}
	}
	stats, _ := posix.Aggregate("POSIX_STATS", "sum")
	if stats != 40 {
		t.Fatalf("total stats = %g, want 40", stats)
	}
	buck, _ := posix.Aggregate("POSIX_SIZE_1K_10K_WRITE", "sum")
	if buck != 40 {
		t.Fatalf("8K write bucket sum = %g, want 40", buck)
	}
}

func TestHeaderAndDocsText(t *testing.T) {
	w := workload.MDWorkbench(workload.MDWorkbenchSpec{
		Ranks: 4, DirsPerRank: 1, FilesPerDir: 4, FileSize: 2 << 10, Rounds: 1,
	}, 1.0)
	log := collectFrom(t, w)
	h := log.HeaderText()
	for _, want := range []string{"nprocs: 4", "exe: MDWorkbench_2K", "darshan log version"} {
		if !strings.Contains(h, want) {
			t.Errorf("header missing %q:\n%s", want, h)
		}
	}
	docs := log.ColumnDocs()
	if !strings.Contains(docs, "POSIX_F_META_TIME") || !strings.Contains(docs, "metadata") {
		t.Errorf("column docs incomplete:\n%s", docs)
	}
}

func TestRankTimeStatistics(t *testing.T) {
	w := workload.IOR(workload.IORSpec{
		Ranks: 4, TransferSize: 512 << 10, BlockSize: 2 << 20, Blocks: 1,
		Random: true, ReadBack: false, Seed: 5,
	}, 1.0)
	log := collectFrom(t, w)
	var posix *Record
	for _, r := range log.Records {
		if r.Module == "POSIX" {
			posix = r
		}
	}
	if posix.SlowestRankTime() < posix.FastestRankTime() {
		t.Fatal("slowest < fastest")
	}
	if posix.VarianceRankTime() < 0 {
		t.Fatal("negative variance")
	}
}

// TestLogRecordOrder pins the record order Log emits: by the text
// "module|file", so MPI-IO precedes POSIX and file 10 precedes file 9.
// The Analysis Agent's frames follow this order, and so does every prompt
// built from them.
func TestLogRecordOrder(t *testing.T) {
	col := NewCollector("MPI-IO")
	for _, f := range []int32{9, 2, 10} {
		col.Record(lustre.Event{Op: workload.OpWrite, File: f, Size: 4096, End: 1})
	}
	var got []string
	for _, r := range col.Log("1", "order", 1).Records {
		got = append(got, fmt.Sprintf("%s|%d", r.Module, r.FileID))
	}
	want := []string{"MPI-IO|10", "MPI-IO|2", "MPI-IO|9", "POSIX|10", "POSIX|2", "POSIX|9"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("record order %v, want %v", got, want)
	}
}
