package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
)

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := OS.MkdirAll(sub); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sub, "f.txt")
	if err := OS.WriteFile(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	b, err := OS.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}

	f, err := OS.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if b, _ = OS.ReadFile(path); string(b) != "hello world" {
		t.Fatalf("after append: %q", b)
	}

	if err := OS.Truncate(path, 5); err != nil {
		t.Fatal(err)
	}
	if b, _ = OS.ReadFile(path); string(b) != "hello" {
		t.Fatalf("after truncate: %q", b)
	}

	tmp, err := OS.CreateTemp(dir, "t-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	dst := filepath.Join(dir, "renamed")
	if err := OS.Rename(tmp.Name(), dst); err != nil {
		t.Fatal(err)
	}
	if _, err := OS.Stat(dst); err != nil {
		t.Fatal(err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("ReadDir = %d entries, %v", len(ents), err)
	}
	if err := OS.Remove(dst); err != nil {
		t.Fatal(err)
	}
	if _, err := OS.Stat(dst); err == nil {
		t.Fatal("Stat after Remove succeeded")
	}

	rf, err := OS.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rf)
	rf.Close()
	if err != nil || string(got) != "hello" {
		t.Fatalf("Open+ReadAll = %q, %v", got, err)
	}
}

func mustFP(t *testing.T, spec string) *chaos.Failpoints {
	t.Helper()
	fp, err := chaos.ParseFailpoints(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestFaultFSInjectsErrors(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{Base: OS, FP: mustFP(t, "write=enospc@1;sync=error@1")}
	path := filepath.Join(dir, "f")
	if err := ffs.WriteFile(path, []byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("WriteFile = %v, want ErrNoSpace", err)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("ENOSPC write still created the file")
	}
	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync = %v, want ErrInjected", err)
	}
	f.Close()
}

func TestFaultFSShortWriteLeavesTornHalf(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{Base: OS, FP: mustFP(t, "write=short@1")}
	path := filepath.Join(dir, "f")
	err := ffs.WriteFile(path, []byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("WriteFile = %v, want ErrInjected", err)
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("torn file missing: %v", rerr)
	}
	if string(b) != "01234" {
		t.Fatalf("torn content = %q, want the first half", b)
	}
}

func TestFaultFSCrashWedgesAfterWriteLands(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{Base: OS, FP: mustFP(t, "write=crash@2")}
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := ffs.WriteFile(a, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := ffs.WriteFile(b, []byte("second")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash write = %v, want ErrCrashed", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() = false after a crash failpoint")
	}
	// Post-write crash window: the triggering write itself is durable.
	if got, _ := os.ReadFile(b); string(got) != "second" {
		t.Fatalf("crash write did not land: %q", got)
	}
	// Everything after the crash is wedged — powercut semantics.
	if err := ffs.WriteFile(a, []byte("later")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash WriteFile = %v, want ErrCrashed", err)
	}
	if _, err := ffs.ReadFile(a); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash ReadFile = %v, want ErrCrashed", err)
	}
	if _, err := ffs.Open(a); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Open = %v, want ErrCrashed", err)
	}
	if err := ffs.MkdirAll(filepath.Join(dir, "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash MkdirAll = %v, want ErrCrashed", err)
	}
	// But the bytes written before the crash survive on the base FS.
	if got, _ := os.ReadFile(a); string(got) != "first" {
		t.Fatalf("pre-crash bytes lost: %q", got)
	}
}

func TestFaultFSOnCrashHook(t *testing.T) {
	dir := t.TempDir()
	called := 0
	ffs := &FaultFS{Base: OS, FP: mustFP(t, "sync:wal=crash@1"), OnCrash: func() { called++ }}
	f, err := ffs.Create(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Sync = %v, want ErrCrashed", err)
	}
	f.Close()
	if called != 1 {
		t.Fatalf("OnCrash called %d times, want 1", called)
	}
}

func TestFaultFSFileWritesKeyedByName(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{Base: OS, FP: mustFP(t, "write:target=short@1")}
	other, err := ffs.Create(filepath.Join(dir, "other"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Write([]byte("unfiltered")); err != nil {
		t.Fatalf("non-matching file write = %v", err)
	}
	other.Close()
	tgt, err := ffs.Create(filepath.Join(dir, "target"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := tgt.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) || n != 5 {
		t.Fatalf("filtered write = (%d, %v), want (5, ErrInjected)", n, err)
	}
	tgt.Close()
}

// WriteAtomic under every fault its four steps can meet: the target
// holds exactly its old bytes or exactly the new ones, never a mix. A
// fault that is not a crash returns an error and leaves no temp file;
// a crash may leave one, which RemoveTemps sweeps at the restart. Only
// a crash at the rename lands the new bytes: the rename completes, then
// the process dies.
func TestWriteAtomicFaultTable(t *testing.T) {
	const pattern = "f.tmp-*"
	old, data := []byte("the old bytes"), []byte("the new bytes, longer than the old")
	for _, op := range []string{"create", "write", "sync", "rename"} {
		for _, action := range []string{"error", "enospc", "short", "crash"} {
			t.Run(op+"="+action, func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "f")
				if err := os.WriteFile(path, old, 0o644); err != nil {
					t.Fatal(err)
				}
				ffs := &FaultFS{Base: OS, FP: mustFP(t, op+"="+action+"@1")}
				err := WriteAtomic(ffs, path, pattern, data)
				switch action {
				case "enospc":
					if !errors.Is(err, ErrNoSpace) {
						t.Fatalf("WriteAtomic = %v, want ErrNoSpace", err)
					}
				case "crash":
					if !errors.Is(err, ErrCrashed) {
						t.Fatalf("WriteAtomic = %v, want ErrCrashed", err)
					}
					RemoveTemps(OS, dir, pattern) // the restart's sweep
				default:
					if !errors.Is(err, ErrInjected) {
						t.Fatalf("WriteAtomic = %v, want ErrInjected", err)
					}
				}
				want := old
				if op == "rename" && action == "crash" {
					want = data
				}
				if got, _ := os.ReadFile(path); string(got) != string(want) {
					t.Fatalf("target holds %q, want %q", got, want)
				}
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 1 {
					var names []string
					for _, e := range ents {
						names = append(names, e.Name())
					}
					t.Fatalf("directory holds %v, want only the target", names)
				}
			})
		}
	}
}
