package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openT(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t)
	key := "v1|bench=list-hi|mode=staggered|threads=4|seed=42"
	payload := []byte(`{"makespan": 12345}`)
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get before Put = %v, want ErrNotFound", err)
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %q != %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 put", st)
	}
	if n := len(objectFiles(t, s)); n != 1 {
		t.Fatalf("%d object files, want 1", n)
	}
}

// objectFiles lists the objects directory, the only place the store
// keeps anything, and fails unless the store root holds nothing else.
func objectFiles(t *testing.T, s *Store) []string {
	t.Helper()
	root, err := os.ReadDir(s.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 1 || root[0].Name() != objectsDir {
		var names []string
		for _, e := range root {
			names = append(names, e.Name())
		}
		t.Fatalf("store root holds %v, want only %s/", names, objectsDir)
	}
	ents, err := os.ReadDir(filepath.Join(s.root, objectsDir))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// assertDropped fails unless key's entry file is gone.
func assertDropped(t *testing.T, s *Store, key string) {
	t.Helper()
	if _, err := os.Stat(s.entryPath(key)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt entry for %q still on disk (%v)", key, err)
	}
}

func TestReopenServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("deterministic payload bytes")
	if err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	// "Restart": a fresh Store over the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("restarted store served different bytes")
	}
}

// corruptEntry rewrites the raw entry file for key through edit.
func corruptEntry(t *testing.T, s *Store, key string, edit func([]byte) []byte) {
	t.Helper()
	path := s.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A hand-corrupted payload must be detected by checksum, removed, and
// reported as a recomputable miss — and a re-Put must fully heal the key.
func TestHandCorruptedEntryRemovedAndHealed(t *testing.T) {
	s := openT(t)
	key, payload := "cell-key", []byte("the true result bytes")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, s, key, func(raw []byte) []byte {
		return bytes.Replace(raw, []byte("true"), []byte("tRue"), 1)
	})
	_, err := s.Get(key)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt Get = %v, want wrapped ErrNotFound", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Reason != "checksum" {
		t.Fatalf("corrupt Get = %v, want CorruptError{checksum}", err)
	}
	assertDropped(t, s, key)
	// The caller's contract: recompute and re-Put; the key works again.
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("healed Get = (%q, %v)", got, err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats %+v, want Corrupt=1", st)
	}
}

// An entry written under a different format version must be removed,
// never decoded.
func TestWrongVersionEntryQuarantined(t *testing.T) {
	s := openT(t)
	key, payload := "versioned-key", []byte("payload")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, s, key, func(raw []byte) []byte {
		old := []byte(fmt.Sprintf("%s %d\n", magic, FormatVersion))
		new := []byte(fmt.Sprintf("%s %d\n", magic, FormatVersion+1))
		return bytes.Replace(raw, old, new, 1)
	})
	_, err := s.Get(key)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Reason != "version" {
		t.Fatalf("wrong-version Get = %v, want CorruptError{version}", err)
	}
	assertDropped(t, s, key)
}

// TestHalfWrittenEntryQuarantined models the crash window: a truncated
// entry under the live name (torn write on a filesystem without atomic
// rename, say) must be removed as a length failure.
func TestHalfWrittenEntryQuarantined(t *testing.T) {
	s := openT(t)
	key, payload := "torn-key", []byte("a payload long enough to truncate meaningfully")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, s, key, func(raw []byte) []byte { return raw[:len(raw)-10] })
	_, err := s.Get(key)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Reason != "length" {
		t.Fatalf("truncated Get = %v, want CorruptError{length}", err)
	}
}

// TestForeignFileQuarantined: garbage dropped at an entry path (wrong
// magic) is removed rather than parsed.
func TestForeignFileQuarantined(t *testing.T) {
	s := openT(t)
	key := "foreign"
	if err := os.WriteFile(s.entryPath(key), []byte("not an entry at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := s.Get(key)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Reason != "magic" {
		t.Fatalf("foreign Get = %v, want CorruptError{magic}", err)
	}
}

// TestKeyMismatchQuarantined: an entry copied under the wrong name (its
// header key disagrees with the requested key) must not be served.
func TestKeyMismatchQuarantined(t *testing.T) {
	s := openT(t)
	if err := s.Put("key-a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.entryPath("key-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.entryPath("key-b"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get("key-b")
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Reason != "key" {
		t.Fatalf("mismatched Get = %v, want CorruptError{key}", err)
	}
	assertDropped(t, s, "key-b")
	// key-a is untouched by key-b's removal.
	if got, err := s.Get("key-a"); err != nil || string(got) != "payload-a" {
		t.Fatalf("sibling key damaged: (%q, %v)", got, err)
	}
}

// TestNewlineKeysSafe: keys are arbitrary strings; header encoding must
// not let a newline forge header lines.
func TestNewlineKeysSafe(t *testing.T) {
	s := openT(t)
	key := "evil\nsha256 0000\nbytes 0"
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key); err != nil || string(got) != "x" {
		t.Fatalf("newline key round trip = (%q, %v)", got, err)
	}
}

// TestNoTempLeakage: every Put leaves exactly its entry behind, no temp
// droppings (the smoke for the write-temp-rename protocol).
func TestNoTempLeakage(t *testing.T) {
	s := openT(t)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	names := objectFiles(t, s)
	for _, n := range names {
		if !strings.HasSuffix(n, ".entry") {
			t.Fatalf("foreign file in objects dir: %s", n)
		}
	}
	if len(names) != 10 {
		t.Fatalf("%d files, want 10", len(names))
	}
}
