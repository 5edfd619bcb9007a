package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/vfs"
)

// TestCorruptionTable drives every header- and payload-level damage
// class through one Get and asserts the uniform contract: the Get is a
// recomputable miss naming the reason, the entry is removed and counted,
// and a re-Put fully heals the key. This is the disk-side mirror of the
// journal's torn-tail discipline — nothing on disk is ever trusted past
// its checksums.
func TestCorruptionTable(t *testing.T) {
	cases := []struct {
		name   string
		reason string
		edit   func(raw []byte) []byte
	}{
		{"bad-magic", "magic", func(raw []byte) []byte {
			return bytes.Replace(raw, []byte(magic), []byte("notastorefile"), 1)
		}},
		{"bad-version", "version", func(raw []byte) []byte {
			old := []byte(fmt.Sprintf("%s %d\n", magic, FormatVersion))
			return bytes.Replace(raw, old, []byte(fmt.Sprintf("%s %d\n", magic, FormatVersion+7)), 1)
		}},
		{"nonnumeric-version", "version", func(raw []byte) []byte {
			old := []byte(fmt.Sprintf("%s %d\n", magic, FormatVersion))
			return bytes.Replace(raw, old, []byte(magic+" one\n"), 1)
		}},
		{"truncated-header", "header", func(raw []byte) []byte {
			// Cut inside the sha256 line: the header never completes.
			idx := bytes.Index(raw, []byte("sha256 "))
			return raw[:idx+10]
		}},
		{"mangled-header-field", "header", func(raw []byte) []byte {
			return bytes.Replace(raw, []byte("bytes "), []byte("bites "), 1)
		}},
		{"truncated-body", "length", func(raw []byte) []byte {
			return raw[:len(raw)-7]
		}},
		{"huge-declared-length", "length", func(raw []byte) []byte {
			// A length no file holds: it must be checked against the bytes
			// present, never allocated.
			i := bytes.Index(raw, []byte("bytes "))
			j := i + bytes.IndexByte(raw[i:], '\n')
			return append(append(raw[:i:i], "bytes 900000000000000"...), raw[j:]...)
		}},
		{"trailing-garbage", "length", func(raw []byte) []byte {
			return append(raw, []byte("extra bytes after the payload")...)
		}},
		{"sha256-mismatch", "checksum", func(raw []byte) []byte {
			// Flip one payload bit; lengths all still line up.
			out := append([]byte(nil), raw...)
			out[len(out)-3] ^= 0x01
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openT(t)
			key := "corruption-" + tc.name
			payload := []byte("the one true payload for " + tc.name)
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			corruptEntry(t, s, key, tc.edit)

			_, err := s.Get(key)
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("corrupt Get = %v, want wrapped ErrNotFound", err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Reason != tc.reason {
				t.Fatalf("corrupt Get = %v, want CorruptError{%s}", err, tc.reason)
			}
			if n := len(objectFiles(t, s)); n != 0 {
				t.Fatalf("%d object files after the corrupt Get, want 0", n)
			}
			// Recompute-and-heal: the caller re-Puts, the key serves again.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(key)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("healed Get = (%q, %v)", got, err)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats %+v, want Corrupt=1", st)
			}
			if n := len(objectFiles(t, s)); n != 1 {
				t.Fatalf("%d object files after the heal, want 1", n)
			}
		})
	}
}

// GC must evict exactly the entries the keep predicate rejects — the
// old-CacheSchema eviction staggerd runs at boot — while live-schema
// entries keep serving byte-identically.
func TestGCEvictsOldSchemaEntries(t *testing.T) {
	s := openT(t)
	keep := []string{"v3|cell|a", "v3|cell|b"}
	evict := []string{"v1|cell|a", "v2|cell|a", "v2|explore|x"}
	for _, k := range append(append([]string(nil), keep...), evict...) {
		if err := s.Put(k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.GC(func(key string) bool { return strings.HasPrefix(key, "v3|") })
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(evict) {
		t.Fatalf("GC removed %d, want %d", removed, len(evict))
	}
	for _, k := range evict {
		if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("evicted key %q still present: %v", k, err)
		}
	}
	for _, k := range keep {
		if got, err := s.Get(k); err != nil || string(got) != "payload of "+k {
			t.Fatalf("kept key %q damaged: (%q, %v)", k, got, err)
		}
	}
	if st := s.Stats(); st.GCRemoved != uint64(len(evict)) {
		t.Fatalf("stats %+v, want GCRemoved=%d", st, len(evict))
	}
	if n := len(objectFiles(t, s)); n != len(keep) {
		t.Fatalf("%d object files, want %d", n, len(keep))
	}
}

// An entry whose header does not even parse is removed by GC, counted
// and reported with its reason, rather than silently skipped or trusted.
func TestGCRemovesUnparseableEntries(t *testing.T) {
	s := openT(t)
	if err := s.Put("good", []byte("x")); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(s.root, objectsDir, strings.Repeat("ab", 32)+".entry")
	if err := os.WriteFile(bad, []byte("junk, not a header\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC(func(string) bool { return true })
	var ce *CorruptError
	if removed != 0 || !errors.As(err, &ce) || ce.Reason != "magic" || ce.Key != filepath.Base(bad) {
		t.Fatalf("GC = (%d, %v), want (0, CorruptError{%s, magic})", removed, err, filepath.Base(bad))
	}
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("junk entry still on disk (%v)", err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.GCRemoved != 0 {
		t.Fatalf("stats %+v, want Corrupt=1 GCRemoved=0", st)
	}
	if got, err := s.Get("good"); err != nil || string(got) != "x" {
		t.Fatalf("good key damaged by GC: (%q, %v)", got, err)
	}
}

// A crash between CreateTemp and Rename leaves put-*.tmp debris; the
// next Open must sweep it without touching live entries.
func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("live", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, objectsDir, "put-123456.tmp")
	if err := os.WriteFile(orphan, []byte("torn half of an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan not swept: %v", err)
	}
	if got, err := s2.Get("live"); err != nil || string(got) != "kept" {
		t.Fatalf("live entry damaged by sweep: (%q, %v)", got, err)
	}
}

// A crash injected right after Put's temp-file write must never damage
// the live name: the key reads back either complete or absent.
func TestPutCrashLeavesLiveNameIntact(t *testing.T) {
	fp, err := chaos.ParseFailpoints("write:objects=crash@2")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ffs := &vfs.FaultFS{Base: vfs.OS, FP: fp}
	s, err := OpenFS(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("the original payload")); err != nil {
		t.Fatal(err)
	}
	// Write hit 2 is the second Put's temp file: bytes land, then "death".
	if err := s.Put("k", []byte("the original payload")); err == nil {
		t.Fatal("crashing Put returned nil")
	}
	// The "restart": a plain store over the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("k")
	if err != nil || string(got) != "the original payload" {
		t.Fatalf("after crash: (%q, %v), want the original payload", got, err)
	}
	if n := len(objectFiles(t, s2)); n != 1 {
		t.Fatalf("%d object files, want exactly the live entry (temp swept)", n)
	}
}

// A full disk or a failed fsync during Put must fail the write without
// corrupting anything; the store keeps serving and a later Put heals the
// key. A Put that never fsyncs its temp file cannot report the failure.
func TestPutENOSPCFailsCleanly(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want error
	}{
		{"write:objects=enospc@1", vfs.ErrNoSpace},
		{"sync:objects=error@1", vfs.ErrInjected},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			fp, err := chaos.ParseFailpoints(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			ffs := &vfs.FaultFS{Base: vfs.OS, FP: fp}
			s, err := OpenFS(ffs, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("k", []byte("v")); !errors.Is(err, tc.want) {
				t.Fatalf("faulted Put = %v, want %v", err, tc.want)
			}
			if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("failed Put left something servable: %v", err)
			}
			if err := s.Put("k", []byte("v")); err != nil {
				t.Fatalf("healing Put = %v", err)
			}
			if got, err := s.Get("k"); err != nil || string(got) != "v" {
				t.Fatalf("healed Get = (%q, %v)", got, err)
			}
		})
	}
}
