package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/vfs"
)

func openTmp(t *testing.T) (*Journal, *Replay, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal", "jobs.wal")
	j, rep, err := Open(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	return j, rep, path
}

func mustAppend(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func reopen(t *testing.T, path string) (*Journal, *Replay) {
	t.Helper()
	j, rep, err := Open(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	return j, rep
}

func TestJournalRoundTrip(t *testing.T) {
	j, rep, path := openTmp(t)
	if len(rep.Records) != 0 || rep.TruncatedBytes != 0 {
		t.Fatalf("fresh journal replayed %+v", rep)
	}
	spec := json.RawMessage(`{"kind":"run"}`)
	mustAppend(t, j,
		Record{Type: RecAccepted, Job: "job-000001", Spec: spec},
		Record{Type: "running", Job: "job-000001"},
		Record{Type: RecDone, Job: "job-000001"},
	)
	j.Close()

	j2, rep2 := reopen(t, path)
	defer j2.Close()
	if len(rep2.Records) != 3 {
		t.Fatalf("replayed %d records, want 3", len(rep2.Records))
	}
	got := rep2.Records
	if got[0].Type != RecAccepted || got[0].Job != "job-000001" ||
		string(got[0].Spec) != string(spec) {
		t.Fatalf("accepted record mangled: %+v", got[0])
	}
	if got[1].Type != "running" || got[2].Type != RecDone {
		t.Fatalf("transition order mangled: %+v", got)
	}
	// Appends continue past the replayed tail.
	mustAppend(t, j2, Record{Type: RecAccepted, Job: "job-000002"})
	_, rep3 := reopen(t, path) // second open only to inspect; j2 still holds the append handle
	if n := len(rep3.Records); n != 4 {
		t.Fatalf("after continued append: %d records, want 4", n)
	}
	if rep3.Records[3].Job != "job-000002" {
		t.Fatalf("continued append replayed as %+v", rep3.Records[3])
	}
}

func TestTerminal(t *testing.T) {
	for typ, want := range map[string]bool{
		RecAccepted: false, "running": false,
		RecDone: true, RecFailed: true, RecCanceled: true,
	} {
		if Terminal(typ) != want {
			t.Errorf("Terminal(%q) = %v, want %v", typ, !want, want)
		}
	}
}

// A torn tail — any suffix of a valid journal — must replay every
// record before it, count the damaged bytes, and truncate the file so
// the next append lands on a frame boundary, leaving nothing beside it.
func TestJournalTornTailTruncated(t *testing.T) {
	j, _, path := openTmp(t)
	mustAppend(t, j,
		Record{Type: RecAccepted, Job: "job-000001"},
		Record{Type: RecAccepted, Job: "job-000002"},
	)
	j.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the offset just past frame i.
	var ends []int
	for off := len(magic); off < len(whole); {
		off += 8 + int(binary.LittleEndian.Uint32(whole[off:]))
		ends = append(ends, off)
	}
	// Chop the file at every few bytes past the header.
	for cut := len(magic) + 1; cut < len(whole)-1; cut += 7 {
		dir := t.TempDir()
		p := filepath.Join(dir, "jobs.wal")
		if err := os.WriteFile(p, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rep := reopen(t, p)
		// Every whole frame before the cut replays, in order.
		intact, valid := 0, len(magic)
		for intact < len(ends) && ends[intact] <= cut {
			valid = ends[intact]
			intact++
		}
		if len(rep.Records) != intact {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(rep.Records), intact)
		}
		for i, r := range rep.Records {
			want := []string{"job-000001", "job-000002"}[i]
			if r.Job != want {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i, r.Job, want)
			}
		}
		onDisk, _ := os.ReadFile(p)
		if len(onDisk) != valid || rep.TruncatedBytes != cut-valid {
			t.Fatalf("cut %d: %d bytes left, %d truncated; want %d left, %d truncated",
				cut, len(onDisk), rep.TruncatedBytes, valid, cut-valid)
		}
		if st := j2.Stats(); st.TruncatedBytes != uint64(cut-valid) {
			t.Fatalf("cut %d: stats %+v, want %d truncated tail bytes", cut, st, cut-valid)
		}
		assertOnlyJournal(t, p)
		// The repaired journal must accept appends and replay cleanly.
		mustAppend(t, j2, Record{Type: RecAccepted, Job: "job-000003"})
		j2.Close()
		_, rep2 := reopen(t, p)
		last := rep2.Records[len(rep2.Records)-1]
		if last.Job != "job-000003" {
			t.Fatalf("cut %d: append after repair lost: %+v", cut, rep2.Records)
		}
	}
}

// A flipped bit inside a frame fails its CRC; the frame and everything
// after it is damage, never a half-trusted record.
func TestJournalCRCCorruptionStopsReplay(t *testing.T) {
	j, _, path := openTmp(t)
	mustAppend(t, j,
		Record{Type: RecAccepted, Job: "job-000001"},
		Record{Type: RecAccepted, Job: "job-000002"},
		Record{Type: RecAccepted, Job: "job-000003"},
	)
	j.Close()
	raw, _ := os.ReadFile(path)
	// Find the second record's payload and flip one bit in it.
	idx := strings.Index(string(raw), "job-000002")
	if idx < 0 {
		t.Fatal("payload not found")
	}
	raw[idx] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rep := reopen(t, path)
	defer j2.Close()
	if len(rep.Records) != 1 || rep.Records[0].Job != "job-000001" {
		t.Fatalf("replay past a bad CRC: %+v", rep.Records)
	}
	if rep.TruncatedBytes == 0 {
		t.Fatal("corrupt frames not truncated")
	}
}

// A non-empty file that does not start with the journal header is
// refused, and left byte for byte as it was: a damaged header may hide
// records the daemon acknowledged, so it is not replaced.
func TestJournalForeignFileRefused(t *testing.T) {
	frame, err := appendFrame(nil, Record{Type: RecAccepted, Job: "job-000001"})
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"foreign":        []byte("this is not a journal"),
		"damaged-header": append([]byte("staggerwaL 1\n"), frame...),
		"newer-version":  append([]byte("staggerwal 2\n"), frame...),
		"wrong-eol":      []byte("staggerwal 1x"),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.wal")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(vfs.OS, path); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("Open = %v, want an error naming %s", err, path)
			}
			if got, _ := os.ReadFile(path); string(got) != string(raw) {
				t.Fatalf("refused file changed: %q, want %q", got, raw)
			}
			assertOnlyJournal(t, path)
		})
	}
}

// An empty file, or a strict prefix of the header (an init that crashed
// mid-header under daemons that wrote it in place), holds no record, so
// Open starts a fresh journal there.
func TestJournalEmptyOrTornHeaderInitializes(t *testing.T) {
	for n := 0; n < len(magic); n++ {
		path := filepath.Join(t.TempDir(), "jobs.wal")
		if err := os.WriteFile(path, []byte(magic[:n]), 0o644); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Open(vfs.OS, path)
		if err != nil {
			t.Fatalf("%d header bytes: %v", n, err)
		}
		if len(rep.Records) != 0 || rep.TruncatedBytes != 0 {
			t.Fatalf("%d header bytes: replay %+v", n, rep)
		}
		mustAppend(t, j, Record{Type: RecAccepted, Job: "job-000001"})
		j.Close()
		if _, rep := reopen(t, path); len(rep.Records) != 1 {
			t.Fatalf("%d header bytes: reinitialized journal replays %+v", n, rep)
		}
	}
}

// A failed append wedges the journal until reopened: appending past a
// possibly-torn tail would orphan every later record. Either half of the
// append may fail: the fsync (the bytes' fate is unknown), or the write
// itself, whose error must not be overwritten by a later fsync that
// succeeds.
func TestJournalWedgesAfterFailedAppend(t *testing.T) {
	// Hit 1 of each op is the magic-header init; hit 2 is the first record.
	for _, spec := range []string{"sync:jobs.wal=error@2", "write:jobs.wal=error@2"} {
		t.Run(spec, func(t *testing.T) {
			fp, err := chaos.ParseFailpoints(spec)
			if err != nil {
				t.Fatal(err)
			}
			ffs := &vfs.FaultFS{Base: vfs.OS, FP: fp}
			path := filepath.Join(t.TempDir(), "jobs.wal")
			j, _, err := Open(ffs, path)
			if err != nil {
				t.Fatal(err)
			}
			err = j.Append(Record{Type: RecAccepted, Job: "job-000001"})
			if !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("first failed append = %v, want the injected error", err)
			}
			if err := j.Append(Record{Type: RecAccepted, Job: "job-000002"}); !errors.Is(err, ErrWedged) {
				t.Fatalf("append after failure = %v, want ErrWedged", err)
			}
			st := j.Stats()
			if st.Appends != 0 || st.AppendErrors != 2 {
				t.Fatalf("stats = %+v", st)
			}
			j.Close()
			// Reopen repairs: a record that landed but was never synced
			// either replays or is truncated, and both are consistent.
			j2, _ := reopen(t, path)
			defer j2.Close()
			if err := j2.Append(Record{Type: RecAccepted, Job: "job-000003"}); err != nil {
				t.Fatalf("append after reopen = %v", err)
			}
		})
	}
}

// Compact unwedges too: it rebuilds the file from scratch.
func TestJournalCompact(t *testing.T) {
	j, _, path := openTmp(t)
	spec := json.RawMessage(`{"kind":"sweep"}`)
	mustAppend(t, j,
		Record{Type: RecAccepted, Job: "job-000001", Spec: spec},
		Record{Type: "running", Job: "job-000001"},
		Record{Type: RecDone, Job: "job-000001"},
		Record{Type: RecAccepted, Job: "job-000002", Spec: spec},
	)
	live := []Record{{Type: RecAccepted, Job: "job-000002", Spec: spec}}
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	// The compacted journal still accepts appends.
	mustAppend(t, j, Record{Type: "running", Job: "job-000002"})
	j.Close()
	_, rep := reopen(t, path)
	if len(rep.Records) != 2 {
		t.Fatalf("after compact: %d records, want 2: %+v", len(rep.Records), rep.Records)
	}
	if rep.Records[0].Job != "job-000002" || string(rep.Records[0].Spec) != string(spec) {
		t.Fatalf("compacted record: %+v", rep.Records[0])
	}
	if rep.Records[1].Type != "running" {
		t.Fatalf("post-compact append: %+v", rep.Records[1])
	}
	assertOnlyJournal(t, path)
}

// assertOnlyJournal fails unless the journal's directory holds the
// journal file and nothing else: no compaction temp, no copy of damage.
func assertOnlyJournal(t *testing.T, path string) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != filepath.Base(path) {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("journal directory holds %v, want only %s", names, filepath.Base(path))
	}
}

// A crash during compaction (before the rename) leaves the old journal
// intact; a crash after the rename leaves the new one. Either way the
// next open sees a valid journal, and removes the compaction's temp file
// when the crash left one.
func TestJournalCompactCrashSafety(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec string
		want int // records the reopened journal must hold
	}{
		// sync hits on any path under the dir: hit 1 = magic init, hits
		// 2-4 = the three appends, hit 5 = the compaction temp file.
		// Renames onto the journal: hit 1 = magic init, hit 2 = compaction.
		{"crash-before-rename", "sync=crash@5", 3},
		{"crash-at-rename", "rename:jobs.wal=crash@2", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fp, err := chaos.ParseFailpoints(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			ffs := &vfs.FaultFS{Base: vfs.OS, FP: fp}
			path := filepath.Join(t.TempDir(), "jobs.wal")
			j, _, err := Open(ffs, path)
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, j,
				Record{Type: RecAccepted, Job: "job-000001"},
				Record{Type: RecDone, Job: "job-000001"},
				Record{Type: RecAccepted, Job: "job-000002"},
			)
			live := []Record{{Type: RecAccepted, Job: "job-000002"}}
			if err := j.Compact(live); err == nil {
				t.Fatal("compact survived its crash failpoint")
			}
			j.Close()
			// The restart opens the real filesystem — whatever the crash
			// left on disk.
			j2, rep := reopen(t, path)
			defer j2.Close()
			if len(rep.Records) != tc.want {
				t.Fatalf("reopened journal has %d records, want %d: %+v",
					len(rep.Records), tc.want, rep.Records)
			}
			if rep.TruncatedBytes != 0 {
				t.Fatalf("compaction crash produced a damaged journal: %+v", rep)
			}
			assertOnlyJournal(t, path)
		})
	}
}

func TestJournalOversizedLengthIsDamage(t *testing.T) {
	j, _, path := openTmp(t)
	mustAppend(t, j, Record{Type: RecAccepted, Job: "job-000001"})
	j.Close()
	raw, _ := os.ReadFile(path)
	// Append a frame header claiming a gigantic payload.
	raw = append(raw, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rep := reopen(t, path)
	defer j2.Close()
	if len(rep.Records) != 1 || rep.TruncatedBytes != 8 {
		t.Fatalf("oversized frame: %+v", rep)
	}
}

func TestJournalStats(t *testing.T) {
	j, _, _ := openTmp(t)
	defer j.Close()
	mustAppend(t, j,
		Record{Type: RecAccepted, Job: "job-000001"},
		Record{Type: RecDone, Job: "job-000001"},
	)
	if err := j.Compact(nil); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Appends != 2 || st.AppendErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
