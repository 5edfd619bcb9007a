package main

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Analyzer string `json:"analyzer"`
	Msg      string `json:"msg"`
}

// emitDiagsJSON prints the machine-readable report, stable-sorted by
// (file, line, analyzer, msg) so identical inputs produce identical
// bytes — the same contract as staggersim's verify reports.
func emitDiagsJSON(out io.Writer, root string, diags []Diagnostic) error {
	fs := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if file != "" {
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		fs = append(fs, jsonFinding{File: file, Line: d.Pos.Line, Col: d.Pos.Column, Analyzer: d.Analyzer, Msg: d.Msg})
	}
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})
	rep := struct {
		Tool     string        `json:"tool"`
		Mode     string        `json:"mode"`
		OK       bool          `json:"ok"`
		Findings []jsonFinding `json:"findings"`
	}{Tool: "staggervet", Mode: "vet", OK: len(fs) == 0, Findings: fs}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
