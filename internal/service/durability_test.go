package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
)

// entryFile mirrors the store's content addressing so the test can reach
// one cell's on-disk entry without exporting store internals.
func entryFile(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, "objects", hex.EncodeToString(sum[:])+".entry")
}

// TestCrashRestartServesIdenticalBytes is the crash-restart acceptance
// case: a daemon computes a job and "crashes" (first server goes away);
// a second daemon over the same store directory must serve the same job
// from disk, byte-identically — and an entry half-written during the
// crash window must be quarantined and transparently recomputed, never
// served corrupt.
func TestCrashRestartServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Cells: []harness.Cell{
		{Bench: "list-hi", Threads: 2, Seed: 1, Ops: 200},
		{Bench: "list-hi", Threads: 2, Seed: 2, Ops: 200},
		{Bench: "list-hi", Threads: 2, Seed: 3, Ops: 200},
	}}

	s1 := newT(t, Config{StoreDir: dir})
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st.State != JobDone || st.FromStore != 0 {
		t.Fatalf("first life: %+v", st)
	}
	before := make([][]byte, len(j1.payloads()))
	for i, p := range j1.payloads() {
		before[i] = append([]byte(nil), p...)
	}
	s1.Close() // first life ends; only the disk store survives

	// The crash window: cell 0's entry was torn mid-write (a truncated
	// file under the live name).
	nc, _, err := spec.Cells[0].Normalize()
	if err != nil {
		t.Fatal(err)
	}
	torn := entryFile(dir, nc.Key())
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newT(t, Config{StoreDir: dir})
	j2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j2)
	if st.State != JobDone {
		t.Fatalf("second life: %+v", st)
	}
	// Two intact cells come from disk; the torn one is quarantined and
	// recomputed.
	if st.FromStore != 2 {
		t.Fatalf("FromStore = %d, want 2 (torn entry must not be served)", st.FromStore)
	}
	if stats := s2.Store().Stats(); stats.Quarantined != 1 {
		t.Fatalf("store stats %+v, want exactly one quarantined entry", stats)
	}
	for i, p := range j2.payloads() {
		if !bytes.Equal(before[i], p) {
			t.Fatalf("cell %d bytes differ across restart:\n%s\nvs\n%s", i, before[i], p)
		}
	}
	// The recompute healed the torn key: a third submission is all hits.
	j3, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j3); st.State != JobDone || st.FromStore != 3 {
		t.Fatalf("healed resubmission: %+v", st)
	}
}
