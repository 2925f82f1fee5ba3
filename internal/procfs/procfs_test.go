package procfs

import (
	"testing"

	"stellar/internal/params"
)

func TestListSortedAndComplete(t *testing.T) {
	reg := params.Lustre()
	tree := New(reg)
	entries := tree.List()
	if len(entries) != len(reg.All()) {
		t.Fatalf("entries = %d, registry = %d", len(entries), len(reg.All()))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Path < entries[i-1].Path {
			t.Fatal("entries not sorted by path")
		}
	}
}

func TestWritableFilter(t *testing.T) {
	tree := New(params.Lustre())
	for _, n := range tree.WritableNames() {
		if n == "version" || n == "mgs.mount_block_size" {
			t.Fatalf("read-only %s in writable set", n)
		}
	}
}

func TestReadWriteApplyReset(t *testing.T) {
	reg := params.Lustre()
	tree := New(reg)
	if v, err := tree.Read("osc.max_rpcs_in_flight"); err != nil || v != "8" {
		t.Fatalf("read default = %q err=%v", v, err)
	}
	if err := tree.Write("osc.max_rpcs_in_flight", 64); err != nil {
		t.Fatal(err)
	}
	if v, _ := tree.Read("osc.max_rpcs_in_flight"); v != "64" {
		t.Fatalf("after write = %q", v)
	}
	if err := tree.Write("version", 1); err == nil {
		t.Fatal("write to read-only accepted")
	}
	if err := tree.Write("nope", 1); err == nil {
		t.Fatal("write to unknown accepted")
	}
	if _, err := tree.Read("nope"); err == nil {
		t.Fatal("read of unknown accepted")
	}
	if err := tree.Apply(params.Config{"llite.statahead_max": 512}); err != nil {
		t.Fatal(err)
	}
	snap := tree.Snapshot()
	if snap["llite.statahead_max"] != 512 {
		t.Fatal("apply did not take")
	}
	tree.SetDefaults()
	if v, _ := tree.Read("llite.statahead_max"); v != "32" {
		t.Fatalf("reset failed: %q", v)
	}
}
