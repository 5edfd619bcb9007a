// Command staggerreport renders observability artifacts as markdown and
// keeps the repository's generated documentation sections in sync with
// the source tree.
//
// Render a metrics report (from `staggersim -metrics`) as tables:
//
//	staggersim -bench list-hi -metrics > run.json
//	staggerreport run.json
//
// Regenerate every generated documentation section: in EXPERIMENTS.md,
// each of cmd/paper's sections (harness.PaperSections, at the default
// seed) as the exact text cmd/paper prints, the cross-backend arena
// table and the abort-attribution appendix (all simulated); in
// README.md, the repository map (from package doc comments):
//
//	staggerreport -write   # rewrite every section in place
//	staggerreport -check   # CI: fail if any section is out of date
//
// Generated sections live between HTML comment markers
// (`<!-- BEGIN GENERATED: <name> -->` / `<!-- END GENERATED: <name> -->`);
// everything outside the markers is hand-written and never touched.
// Every generator is deterministic (fixed seed, stable sort orders), so
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

// generated is one generated documentation section: the file and marker
// name it lives under, and the generator of its body.
type generated struct {
	path, name string
	body       func() ([]byte, error)
}

func main() {
	check := flag.Bool("check", false, "verify every generated section is up to date (exit 1 on drift)")
	write := flag.Bool("write", false, "rewrite every generated section in place")
	experiments := flag.String("experiments", "EXPERIMENTS.md", "path to EXPERIMENTS.md")
	readme := flag.String("readme", "README.md", "path to README.md")
	workers := flag.Int("workers", runtime.NumCPU(), "max concurrent simulation runs")
	flag.Parse()
	harness.SetWorkers(*workers)

	if !*check && !*write {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: staggerreport <metrics.json> | -check | -write")
			os.Exit(2)
		}
		if err := renderMetrics(flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "staggerreport:", err)
			os.Exit(1)
		}
		return
	}

	var sections []generated
	for _, s := range harness.PaperSections {
		sections = append(sections, generated{*experiments, "paper-" + s.Name, func() ([]byte, error) {
			text, err := s.Render(harness.DefaultSeed)
			return []byte("```text\n" + text + "```\n"), err
		}})
	}
	sections = append(sections,
		generated{*experiments, "backend-arena", generateBackendArena},
		generated{*experiments, "abort-appendix", generateAppendix},
		generated{*readme, "repo-map", func() ([]byte, error) { return generateRepoMap(".") }},
	)
	failed := false
	for _, g := range sections {
		body, err := g.body()
		if err == nil {
			err = applySection(g.path, g.name, body, *write)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "staggerreport: %s: %v\n", g.name, err)
			os.Stderr.Write(harness.PanicStack(err))
			failed = true
			continue
		}
		fmt.Printf("%-19s %s OK\n", g.name, g.path)
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

// applySection rewrites a file's generated section (write; it wins over
// -check), or verifies that it already holds body.
func applySection(path, name string, body []byte, write bool) error {
	if write {
		return replaceSection(path, name, body)
	}
	current, err := extractSection(path, name)
	if err != nil {
		return err
	}
	if !bytes.Equal(current, body) {
		return fmt.Errorf("generated section %q in %s is out of date (run staggerreport -write)", name, path)
	}
	return nil
}
