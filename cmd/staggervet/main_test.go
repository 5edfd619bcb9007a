package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a throwaway module from path→source pairs and
// returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module repro\n\ngo 1.22\n"
	for p, src := range files {
		full := filepath.Join(root, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// vet runs the full staggervet driver over a fixture module and returns
// (exit code, output).
func vet(t *testing.T, files map[string]string) (int, string) {
	t.Helper()
	root := writeTree(t, files)
	var sb strings.Builder
	code := run(root, nil, &sb, false)
	return code, sb.String()
}

// TestRepoIsVetClean runs the real analyzers over the real repository:
// the tree must stay free of errshadow and fsyncpath findings (this is
// `make vet` in test form).
func TestRepoIsVetClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if code := run(root, nil, &sb, false); code != 0 {
		t.Fatalf("staggervet on the repo exited %d:\n%s", code, sb.String())
	}
}

// TestErrShadowReproducesJournalFsyncBug is the regression fixture for
// the err-shadowing bug the journal PR fixed: a Write error overwritten
// by the Sync assignment before anything checks it, silently swallowing
// the torn write. The fixed shape (check between the two) must stay
// clean.
func TestErrShadowReproducesJournalFsyncBug(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/journal/append.go": `package journal

type file interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

func initEmpty(f file) error {
	_, err := f.Write([]byte("hdr"))
	err = f.Sync() // overwrites the unchecked Write error
	if err != nil {
		return err
	}
	return f.Close()
}

func initEmptyFixed(f file) error {
	_, err := f.Write([]byte("hdr"))
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		return err
	}
	return f.Close()
}
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "append.go:11:") || !strings.Contains(out, "[errshadow]") ||
		!strings.Contains(out, "overwritten before it is checked") {
		t.Fatalf("missing errshadow diagnostic at the Sync overwrite:\n%s", out)
	}
	if got := strings.Count(out, "[errshadow]"); got != 1 {
		t.Fatalf("want exactly 1 errshadow finding (the fixed shape must stay clean), got %d:\n%s", got, out)
	}
}

// fakeVFS is a miniature internal/vfs with the seam surface fsyncpath
// matches on.
const fakeVFS = `package vfs

type File interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
}
`

func TestFsyncPathSeamAndOrdering(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/vfs/vfs.go": fakeVFS,
		"internal/store/put.go": `package store

import (
	"os"

	"repro/internal/vfs"
)

func PutTorn(fs vfs.FS, dir, dst string) error {
	tmp, err := fs.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write([]byte("x")); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp.Name(), dst) // published without Sync: flagged
}

func PutGood(fs vfs.FS, dir, dst string) error {
	tmp, err := fs.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	return fs.Rename(tmp.Name(), dst)
}

// quarantine-style move of already-durable bytes: no create, not flagged.
func Sideline(fs vfs.FS, path, dst string) error {
	return fs.Rename(path, dst)
}

func Sweep(dir string) { os.Remove(dir) } // bypasses the seam: flagged
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "put.go:20:") || !strings.Contains(out, "without an fsync") {
		t.Fatalf("missing rename-without-sync diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "os.Remove") || !strings.Contains(out, "vfs seam") {
		t.Fatalf("missing os-bypass diagnostic:\n%s", out)
	}
	if got := strings.Count(out, "[fsyncpath]"); got != 2 {
		t.Fatalf("want exactly 2 fsyncpath findings (PutGood and Sideline must stay clean), got %d:\n%s", got, out)
	}
}

// TestJSONReport checks the -json contract: stable fields, repo-relative
// paths, ok mirroring the exit code.
func TestJSONReport(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/journal/sync.go": `package journal

func flush(write func() error, sync func() error) error {
	err := write()
	err = sync()
	return err
}
`,
	})
	var sb strings.Builder
	code := run(root, nil, &sb, true)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, sb.String())
	}
	var rep struct {
		Tool     string `json:"tool"`
		Mode     string `json:"mode"`
		OK       bool   `json:"ok"`
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Msg      string `json:"msg"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if rep.Tool != "staggervet" || rep.OK || len(rep.Findings) != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	f := rep.Findings[0]
	if f.File != "internal/journal/sync.go" || f.Line != 5 || f.Analyzer != "errshadow" {
		t.Fatalf("unexpected finding: %+v", f)
	}
}
