package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSectionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.md")
	orig := "# Title\n\nprose before\n\n" +
		string(beginMarker("x")) + "old body\n" + string(endMarker("x")) +
		"\nprose after\n"
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := extractSection(path, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old body\n" {
		t.Fatalf("extract = %q, want %q", got, "old body\n")
	}

	if err := replaceSection(path, "x", []byte("new body\nline 2\n")); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The surrounding prose must survive a rewrite untouched.
	if !bytes.HasPrefix(after, []byte("# Title\n\nprose before\n")) ||
		!bytes.HasSuffix(after, []byte("\nprose after\n")) {
		t.Fatalf("prose around the section was disturbed:\n%s", after)
	}
	got, err = extractSection(path, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new body\nline 2\n" {
		t.Fatalf("after replace, extract = %q", got)
	}

	// Replacing twice with the same body is idempotent.
	if err := replaceSection(path, "x", []byte("new body\nline 2\n")); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, again) {
		t.Fatal("replaceSection is not idempotent")
	}
}

func TestFindSectionMissingMarkers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.md")
	if err := os.WriteFile(path, []byte("no markers here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := extractSection(path, "x"); err == nil {
		t.Fatal("expected an error for a file without markers")
	}
	// BEGIN without END is also an error, not a silent match to EOF.
	if err := os.WriteFile(path, append([]byte("a\n"), beginMarker("x")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := extractSection(path, "x"); err == nil {
		t.Fatal("expected an error for a BEGIN marker without END")
	}
}

func TestPackageSynopsis(t *testing.T) {
	dir := t.TempDir()
	src := `// Package widget frobs the grommets: with great speed.
package widget
`
	if err := os.WriteFile(filepath.Join(dir, "widget.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// A doc-comment-free file added later must not shadow the real one.
	if err := os.WriteFile(filepath.Join(dir, "aux.go"), []byte("package widget\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	syn, err := packageSynopsis(dir)
	if err != nil {
		t.Fatal(err)
	}
	if syn != "frobs the grommets" {
		t.Fatalf("synopsis = %q, want %q", syn, "frobs the grommets")
	}

	undoc := t.TempDir()
	if err := os.WriteFile(filepath.Join(undoc, "a.go"), []byte("package nodoc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := packageSynopsis(undoc); err == nil {
		t.Fatal("expected an error for an undocumented package")
	}
}

// TestRepoMapMatchesTree regenerates the repo map from the source tree
// and checks it against what README.md has committed — the same gate
// `make docs-verify` applies in CI, runnable as a plain test.
func TestRepoMapMatchesTree(t *testing.T) {
	root := "../.."
	body, err := generateRepoMap(root)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := extractSection(filepath.Join(root, "README.md"), "repo-map")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, committed) {
		t.Fatalf("README repo-map is stale; run `go run ./cmd/staggerreport -write`\n--- generated ---\n%s\n--- committed ---\n%s",
			body, committed)
	}
	// Every package row must carry a real synopsis, not a placeholder.
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "| `") && strings.Count(line, "|") == 3 {
			cells := strings.Split(line, "|")
			if strings.TrimSpace(cells[2]) == "" {
				t.Errorf("empty purpose cell in row %q", line)
			}
		}
	}
}
