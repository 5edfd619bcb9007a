// Command paper regenerates every table and figure of the paper's
// evaluation (Section 6) on the simulated machine.
//
// Usage:
//
//	paper                  # everything
//	paper -table 3         # one table (1, 2, 3, 4)
//	paper -figure 7        # one figure (7, 8)
//	paper -claims          # headline claim summary
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
	csvDir := flag.String("csv", "", "write all experiments as CSV files into this directory")
	seed := flag.Int64("seed", 42, "experiment seed")
	workers := flag.Int("workers", runtime.NumCPU(),
		"max concurrent simulation runs (1 = sequential; output is identical either way)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.Parse()
	harness.SetWorkers(*workers)

	all := *table == 0 && *figure == 0 && !*claims && !*lazy && *scaling == "" && *csvDir == ""
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

	if all || *table == 1 {
		rows, err := harness.Table1(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatTable1(rows))
	}
	if all || *table == 2 {
		fmt.Println(harness.Table2())
	}
	if all || *table == 3 {
		rows, err := harness.Table3(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatTable3(rows))
	}
	if all || *table == 4 {
		rows, err := harness.Table4(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatTable4(rows))
	}
	if all || *figure == 7 {
		rows, err := harness.Figure7(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatFigure7(rows))
	}
	if all || *figure == 8 {
		rows, err := harness.Figure8(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatFigure8(rows))
	}
	if all || *claims {
		cs, err := harness.Claims(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatClaims(cs))
	}
	if *lazy {
		rows, err := harness.FigureLazy(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatFigureLazy(rows))
	}
	if *scaling != "" {
		rows, err := harness.Scaling(*scaling, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatScaling(*scaling, rows))
	}
	if *csvDir != "" {
		if err := harness.WriteCSV(*csvDir, *seed); err != nil {
			fail(err)
		}
		fmt.Printf("wrote experiment CSVs to %s\n", *csvDir)
	}
}
