// Command staggervet runs the repo's Go-source analyzers: two checks on
// error and durability discipline whose defects no test makes visible.
// It type-checks every package under internal/ and cmd/ using only the
// standard library (no external analysis framework) and reports
//
//	errshadow — error values overwritten before they are checked
//	fsyncpath — durable-layer I/O outside the vfs seam, or renames
//	            publishing bytes that were never fsynced
//
// Diagnostics print as file:line:col: [analyzer] message, and any
// finding makes the process exit nonzero, so `make vet` and CI fail on
// the first violation. There is no waiver: a finding is fixed, never
// excused. -json emits the findings as a stable-sorted
// machine-readable report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

var analyzers = []*Analyzer{errshadowAnalyzer, fsyncpathAnalyzer}

func main() {
	root := flag.String("root", "", "module root (default: nearest go.mod at or above the working directory)")
	asJSON := flag.Bool("json", false, "emit findings as a machine-readable JSON report")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: staggervet [-root dir] [-json] [package-dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(*root, flag.Args(), os.Stdout, *asJSON))
}

// run loads the requested packages (default: all of internal/ and cmd/),
// applies every analyzer, and emits text or JSON, returning the process
// exit code.
func run(root string, dirs []string, out io.Writer, asJSON bool) int {
	var err error
	if root == "" {
		root, err = findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "staggervet:", err)
			return 2
		}
	}
	l, err := newLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "staggervet:", err)
		return 2
	}
	paths := make([]string, 0, len(dirs))
	if len(dirs) == 0 {
		paths, err = l.modulePackages("internal", "cmd")
		if err != nil {
			fmt.Fprintln(os.Stderr, "staggervet:", err)
			return 2
		}
	} else {
		for _, d := range dirs {
			rel, err := filepath.Rel(root, absOrDie(d))
			if err != nil || filepath.IsAbs(rel) || rel == ".." {
				fmt.Fprintf(os.Stderr, "staggervet: %s is outside module root %s\n", d, root)
				return 2
			}
			paths = append(paths, l.modPath+"/"+filepath.ToSlash(rel))
		}
	}
	var diags []Diagnostic
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "staggervet:", err)
			return 2
		}
		diags = append(diags, runAnalyzers(analyzers, p)...)
	}
	if asJSON {
		if err := emitDiagsJSON(out, root, diags); err != nil {
			fmt.Fprintln(os.Stderr, "staggervet:", err)
			return 2
		}
		if len(diags) > 0 {
			return 1
		}
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(out, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(out, "staggervet: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the nearest go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

func absOrDie(p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "staggervet:", err)
		os.Exit(2)
	}
	return a
}
