package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/store"
	"repro/internal/vfs"
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
// crash window must be removed and transparently recomputed, never
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
	// Read back from the store: the test's own copies.
	before := results(t, s1, j1)
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
	// Two intact cells come from disk; the torn one is removed and
	// recomputed.
	if st.FromStore != 2 {
		t.Fatalf("FromStore = %d, want 2 (torn entry must not be served)", st.FromStore)
	}
	if stats := s2.store.Stats(); stats.Corrupt != 1 {
		t.Fatalf("store stats %+v, want exactly one corrupt entry", stats)
	}
	for i, p := range results(t, s2, j2) {
		if !bytes.Equal(before[i], p) {
			t.Fatalf("cell %d bytes differ across restart:\n%s\nvs\n%s", i, before[i], p)
		}
	}
	// Nothing was set aside: the store root holds the objects and the
	// journal, and the torn entry's bytes are gone.
	if ents, _ := os.ReadDir(dir); len(ents) != 2 || ents[0].Name() != "journal" || ents[1].Name() != "objects" {
		t.Fatalf("store root holds %v, want only journal/ and objects/", ents)
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

// Boot GC keeps exactly the key form this binary issues — cell keys
// under the current schema — and evicts the rest: the previous schema's,
// and the explore payloads older daemons stored under every explore
// version, since this one serves no explore jobs. A cell the previous
// schema stored is then recomputed, not served, and its new payload is
// compact JSON.
func TestBootGCKeepsOnlyIssuedKeys(t *testing.T) {
	dir := t.TempDir()
	cell, _, err := harness.Cell{Bench: "list-hi", Threads: 2, Seed: 1, Ops: 200}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	stale, _, err := harness.Cell{Bench: "list-hi", Threads: 2, Seed: 2, Ops: 200}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	keep := []string{cell.Key()}
	prev := fmt.Sprintf("v%d|", harness.CacheSchema-1)
	staleKey := prev + strings.TrimPrefix(stale.Key(), fmt.Sprintf("v%d|", harness.CacheSchema))
	if !strings.HasPrefix(staleKey, prev+"cell|") {
		t.Fatalf("stale key %q is not a previous-schema cell key", staleKey)
	}
	// Explore keys as the last explore versions spelled them: v3, and v2
	// with and without a sched in the campaign's cell.
	cellJSON := strings.TrimPrefix(cell.Key(), harness.CellKeyPrefix)
	explore := func(version int, cell string) string {
		return fmt.Sprintf(`v%d|explore.v%d|{"cell":%s,"sched":"pct:3","runs":3}`, harness.CacheSchema, version, cell)
	}
	evict := []string{
		explore(3, cellJSON),
		explore(2, cellJSON),
		explore(2, strings.Replace(cellJSON, `"ops":200`, `"ops":200,"sched":"pct:3"`, 1)),
		staleKey,
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range append(append([]string(nil), keep...), evict...) {
		if err := st.Put(k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	s := newT(t, Config{StoreDir: dir})
	if m := s.Metrics(); m.Store.GCRemoved != uint64(len(evict)) {
		t.Fatalf("boot GC removed %d entries, want %d", m.Store.GCRemoved, len(evict))
	}
	for _, k := range keep {
		if got, err := s.store.Get(k); err != nil || string(got) != "payload of "+k {
			t.Fatalf("issued key %q lost at boot: (%q, %v)", k, got, err)
		}
	}
	for _, k := range evict {
		if _, err := s.store.Get(k); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("unissued key %q survived boot GC: %v", k, err)
		}
	}
	j, err := s.Submit(JobSpec{Cells: []harness.Cell{stale}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != JobDone || st.FromStore != 0 {
		t.Fatalf("resubmitted previous-schema cell: %+v, want done with from_store 0", st)
	}
	got := results(t, s, j)[0]
	var cr CellResult
	if err := json.Unmarshal(got, &cr); err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(&cr); !bytes.Equal(got, want) {
		t.Fatalf("recomputed payload is not compact JSON:\n%s", got)
	}
}

// TestDoneJobRecomputesLostEntry: a done job's computed payloads live in
// the store alone, so an entry lost after the job finished (corrupted on
// disk and removed, or failing its read) is recomputed when the result
// is fetched: /result serves the same bytes, result_recomputes counts
// the re-run, and the entry is back in the store.
func TestDoneJobRecomputesLostEntry(t *testing.T) {
	ref := newT(t, Config{})
	rj, err := ref.Submit(tinySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, rj)
	want := results(t, ref, rj)

	for _, tc := range []struct{ name, failpoint string }{
		{"corrupt", ""},
		// The first objects read is the job's own store lookup; the
		// second is the fetch's.
		{"read-error", "open:objects=error@2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{StoreDir: dir}
			var fp *chaos.Failpoints
			if tc.failpoint != "" {
				var err error
				if fp, err = chaos.ParseFailpoints(tc.failpoint); err != nil {
					t.Fatal(err)
				}
				cfg.FS = &vfs.FaultFS{Base: vfs.OS, FP: fp}
			}
			s := newT(t, cfg)
			j, err := s.Submit(tinySpec(5))
			if err != nil {
				t.Fatal(err)
			}
			if st := waitJob(t, j); st.State != JobDone || st.Computed != 1 {
				t.Fatalf("cold job: %+v", st)
			}
			key := j.plan.keys[0]
			if fp == nil {
				path := entryFile(dir, key)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)-2] ^= 0xff // a payload byte: the checksum fails
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got := resultBody(t, s, j); !bytes.Equal(got, resultOf(want)) {
				t.Fatalf("/result after the entry was lost:\n%s\nwant:\n%s", got, resultOf(want))
			}
			if fp != nil {
				if rep := fp.Report(); rep[0].Fired != 1 {
					t.Fatalf("failpoint %+v, want it fired once, at the fetch", rep[0])
				}
			} else if c := s.store.Stats().Corrupt; c != 1 {
				t.Fatalf("store counted %d corrupt entries, want 1", c)
			}
			if m := s.Metrics(); m.Recomputes != 1 {
				t.Fatalf("result_recomputes %d, want 1", m.Recomputes)
			}
			if back, err := s.store.Get(key); err != nil || !bytes.Equal(back, want[0]) {
				t.Fatalf("the recomputed entry is not back in the store: (%d bytes, %v)", len(back), err)
			}
		})
	}
}
