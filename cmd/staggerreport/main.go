// Command staggerreport renders observability artifacts as markdown and
// keeps the repository's generated documentation sections in sync with
// the source tree.
//
// Render a metrics report (from `staggersim -metrics`) as tables:
//
//	staggersim -bench list-hi -metrics > run.json
//	staggerreport run.json
//
// Regenerate the generated documentation sections — the abort-attribution
// appendix and the cross-backend arena table in EXPERIMENTS.md (both
// simulated) and the repository map in README.md (from package doc
// comments):
//
//	staggerreport -appendix -write     # update EXPERIMENTS.md in place
//	staggerreport -backends -write     # update the backend-arena table
//	staggerreport -repomap -write      # update README.md in place
//	staggerreport -appendix -backends -repomap -check   # CI: fail if out of date
//
// Generated sections live between HTML comment markers
// (`<!-- BEGIN GENERATED: <name> -->` / `<!-- END GENERATED: <name> -->`);
// everything outside the markers is hand-written and never touched.
// Both generators are deterministic (fixed seed, stable sort orders), so
// `-check` is a meaningful CI gate: a diff means source and docs drifted.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	appendix := flag.Bool("appendix", false, "regenerate the EXPERIMENTS.md abort-attribution appendix")
	backends := flag.Bool("backends", false, "regenerate the EXPERIMENTS.md cross-backend arena table")
	repomap := flag.Bool("repomap", false, "regenerate the README.md repository map from package docs")
	check := flag.Bool("check", false, "verify generated sections are up to date (exit 1 on drift) instead of printing")
	write := flag.Bool("write", false, "rewrite the target file's generated section in place")
	experiments := flag.String("experiments", "EXPERIMENTS.md", "path to EXPERIMENTS.md for -appendix")
	readme := flag.String("readme", "README.md", "path to README.md for -repomap")
	topN := flag.Int("top", 3, "conflicting anchors per workload in the appendix")
	workers := flag.Int("workers", runtime.NumCPU(), "max concurrent simulation runs for -appendix")
	flag.Parse()
	harness.SetWorkers(*workers)

	if !*appendix && !*backends && !*repomap {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: staggerreport <metrics.json> | -appendix|-backends|-repomap [-check|-write]")
			os.Exit(2)
		}
		if err := renderMetrics(flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "staggerreport:", err)
			os.Exit(1)
		}
		return
	}

	failed := false
	if *appendix {
		body, err := generateAppendix(*topN)
		if err == nil {
			err = applySection(*experiments, "abort-appendix", body, *check, *write)
		}
		failed = reportOutcome("appendix", *experiments, err) || failed
	}
	if *backends {
		body, err := generateBackendArena()
		if err == nil {
			err = applySection(*experiments, "backend-arena", body, *check, *write)
		}
		failed = reportOutcome("backends", *experiments, err) || failed
	}
	if *repomap {
		body, err := generateRepoMap(".")
		if err == nil {
			err = applySection(*readme, "repo-map", body, *check, *write)
		}
		failed = reportOutcome("repo map", *readme, err) || failed
	}
	if failed {
		os.Exit(1)
	}
}

// renderMetrics reads a metrics JSON file and prints it as markdown.
func renderMetrics(path string) error {
	rep, err := readReport(path)
	if err != nil {
		return err
	}
	return obs.WriteMarkdown(os.Stdout, rep)
}

// reportOutcome prints one generator's result, returning true on failure.
func reportOutcome(what, path string, err error) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "staggerreport: %s: %v\n", what, err)
		os.Stderr.Write(harness.PanicStack(err))
		return true
	}
	fmt.Printf("%-9s %s OK\n", what, path)
	return false
}

// applySection routes a generated body to the requested action: verify
// (check), rewrite (write), or print to stdout (neither).
func applySection(path, name string, body []byte, check, write bool) error {
	switch {
	case check:
		current, err := extractSection(path, name)
		if err != nil {
			return err
		}
		if !bytes.Equal(current, body) {
			return fmt.Errorf("generated section %q in %s is out of date (run staggerreport -%s -write)",
				name, path, map[string]string{
					"abort-appendix": "appendix",
					"backend-arena":  "backends",
					"repo-map":       "repomap",
				}[name])
		}
		return nil
	case write:
		return replaceSection(path, name, body)
	default:
		_, err := os.Stdout.Write(body)
		return err
	}
}
