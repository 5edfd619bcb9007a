// Command paper regenerates every table and figure of the paper's
// evaluation (Section 6) on the simulated machine. Its sections are
// harness.PaperSections; EXPERIMENTS.md holds each one's text at the
// default seed (`staggerreport -write`).
//
// Usage:
//
//	paper                  # everything
//	paper -table 3         # one table (1, 2, 3, 4)
//	paper -figure 7        # one figure (7, 8)
//	paper -claims          # headline claim summary
//	paper -lazy            # the lazy-TM extension (not in the default run)
//	paper -scaling list-hi # thread-scaling curve for one benchmark
//	paper -seed 7          # change the experiment seed
//	paper -workers 1       # strictly sequential runs (same output bytes)
//	paper -cpuprofile p    # also write a pprof CPU profile of the run to p
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/harness"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-4)")
	figure := flag.Int("figure", 0, "regenerate one figure (7-8)")
	claims := flag.Bool("claims", false, "print headline claim summary")
	lazy := flag.Bool("lazy", false, "run the lazy-TM extension experiment")
	scaling := flag.String("scaling", "", "thread-scaling curve for one benchmark")
	seed := flag.Int64("seed", 42, "experiment seed")
	workers := flag.Int("workers", runtime.NumCPU(),
		"max concurrent simulation runs (1 = sequential; output is identical either way)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.Parse()
	harness.SetWorkers(*workers)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Stderr.Write(harness.PanicStack(err))
		os.Exit(1)
	}
	stopProfile, err := harness.CPUProfile(*cpuprofile)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fail(err)
		}
	}()

	pick := harness.DefaultRun
	if *table != 0 || *figure != 0 || *claims || *lazy || *scaling != "" {
		asked := map[string]bool{
			fmt.Sprintf("table%d", *table):   true,
			fmt.Sprintf("figure%d", *figure): true,
			"claims":                         *claims,
			"lazy":                           *lazy,
		}
		pick = func(s harness.Section) bool { return asked[s.Name] }
	}
	if err := harness.WritePaper(os.Stdout, *seed, pick); err != nil {
		fail(err)
	}
	if *scaling != "" {
		rows, err := harness.Scaling(*scaling, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatScaling(*scaling, rows))
	}
}
