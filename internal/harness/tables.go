package harness

import (
	"fmt"
	"strings"

	"repro/internal/htm"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// PaperThreads is the thread count of the paper's evaluation machine.
const PaperThreads = 16

// sweep is one generator's cell list and what to make of it. add names a
// cell, once, and returns the index of its run in the slice the row
// functions receive; run fetches every cell with one call to results and
// then builds the rows, in the order their functions were given.
type sweep[Row any] struct {
	cells []RunConfig
	rows  []func(r []*Result) Row
}

func (s *sweep[Row]) add(rc RunConfig) int {
	s.cells = append(s.cells, rc)
	return len(s.cells) - 1
}

func (s *sweep[Row]) row(f func(r []*Result) Row) { s.rows = append(s.rows, f) }

func (s *sweep[Row]) run() ([]Row, error) {
	r, err := results(s.cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(s.rows))
	for i, f := range s.rows {
		rows[i] = f(r)
	}
	return rows, nil
}

// yn renders a boolean as the paper's Y/N.
func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

// Table1Row is one row of Table 1 (HTM contention characterization).
type Table1Row struct {
	Bench  string
	S      float64 // speedup at 16 threads over sequential
	PctI   float64 // fraction of txns forced irrevocable
	WU     float64 // wasted/useful transactional cycles
	Source string  // contention source (workload metadata)
	LA, LP bool    // locality of conflict addresses / PCs
}

// table1Sources matches the paper's "Contention Source" column.
var table1Sources = map[string]string{
	"list-hi":   "linked-list",
	"tsp":       "priority queue",
	"memcached": "statistics information",
	"intruder":  "task queue",
	"kmeans":    "arrays",
	"vacation":  "red-black trees",
}

// table1Benches is Table 1's row order.
var table1Benches = []string{"list-hi", "tsp", "memcached", "intruder", "kmeans", "vacation"}

// table1Cell is the run Table 1 characterizes for one benchmark.
func table1Cell(b string, seed int64) RunConfig {
	return RunConfig{Benchmark: b, Mode: stagger.ModeHTM, Threads: PaperThreads, Seed: seed}
}

// Table1Runs returns Table 1's 16-thread baseline-HTM runs in row order,
// for reports that annotate the table from the runs behind it.
func Table1Runs(seed int64) ([]*Result, error) {
	cells := make([]RunConfig, len(table1Benches))
	for i, b := range table1Benches {
		cells[i] = table1Cell(b, seed)
	}
	return results(cells)
}

// Table1 characterizes baseline-HTM contention for the paper's six
// representative benchmarks.
func Table1(seed int64) ([]Table1Row, error) {
	var sw sweep[Table1Row]
	for _, b := range table1Benches {
		cell := table1Cell(b, seed)
		seq, par := sw.add(sequential(cell)), sw.add(cell)
		sw.row(func(r []*Result) Table1Row {
			return Table1Row{
				Bench:  b,
				S:      over(r[seq], r[par]),
				PctI:   r[par].Stats.IrrevocableFraction(),
				WU:     r[par].WastedOverUseful(),
				Source: table1Sources[b],
				LA:     r[par].LA,
				LP:     r[par].LP,
			}
		})
	}
	return sw.run()
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: HTM contention in representative benchmarks\n")
	fmt.Fprintf(&b, "%-10s %5s %5s %6s  %-24s %2s %2s\n",
		"Benchmark", "S", "%I", "W/U", "Contention Source", "LA", "LP")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %5.1f %4.0f%% %6.2f  %-24s %2s %2s\n",
			r.Bench, r.S, r.PctI*100, r.WU, r.Source, yn(r.LA), yn(r.LP))
	}
	return b.String()
}

// Table2 renders the simulated machine configuration.
func Table2() string {
	c := htm.DefaultConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Configuration of the HTM simulator\n")
	fmt.Fprintf(&b, "CPU cores     %d cores, %d-wide issue, virtual-time lock-step\n", c.Cores, htm.IssueWidth)
	fmt.Fprintf(&b, "L1 cache      %d lines x 64B, %d-way, %d-cycle\n", c.L1Lines, c.L1Ways, c.L1Lat)
	fmt.Fprintf(&b, "L2 cache      private presence model, %d-cycle\n", c.L2Lat)
	fmt.Fprintf(&b, "L3 cache      shared presence model, %d-cycle\n", c.L3Lat)
	fmt.Fprintf(&b, "Memory        %d-cycle\n", c.MemLat)
	fmt.Fprintf(&b, "HTM           2-bit (r/w) per L1 line, eager requester-wins\n")
	fmt.Fprintf(&b, "Stag. Trans.  %d-bit PC tag per L1 line\n", c.PCTagBits)
	return b.String()
}

// Table3Row is one row of Table 3 (instrumentation stats + accuracy).
type Table3Row struct {
	Bench         string
	LdSt          int     // static loads/stores analyzed
	Anchors       int     // static anchors instrumented
	UopsPerTxn    float64 // dynamic µ-ops per txn (1 thread)
	AnchorsPerTxn float64 // dynamic anchors per txn (1 thread)
	ExecTimeInc   float64 // 1-thread slowdown from instrumentation
	Accuracy      float64 // anchor identification accuracy (16 threads)
}

// table3Benches: the paper's Table 3 has one "list" row; we use list-hi.
var table3Benches = []string{"genome", "intruder", "kmeans", "labyrinth",
	"ssca2", "vacation", "list-hi", "tsp", "memcached"}

// Table3 measures instrumentation overhead and accuracy.
func Table3(seed int64) ([]Table3Row, error) {
	var sw sweep[Table3Row]
	for _, b := range table3Benches {
		base1 := sw.add(RunConfig{Benchmark: b, Mode: stagger.ModeHTM, Threads: 1, Seed: seed})
		inst1 := sw.add(RunConfig{Benchmark: b, Mode: stagger.ModeStaggeredHW, Threads: 1, Seed: seed})
		inst16 := sw.add(RunConfig{Benchmark: b, Mode: stagger.ModeStaggeredHW, Threads: PaperThreads, Seed: seed})
		sw.row(func(r []*Result) Table3Row {
			return Table3Row{
				Bench:         b,
				LdSt:          r[inst1].StaticAccesses,
				Anchors:       r[inst1].StaticAnchors,
				UopsPerTxn:    r[inst1].UopsPerTxn(),
				AnchorsPerTxn: r[inst1].AnchorsPerTxn(),
				ExecTimeInc:   over(r[inst1], r[base1]) - 1,
				Accuracy:      r[inst16].Metrics.Accuracy(),
			}
		})
	}
	return sw.run()
}

// FormatTable3 renders Table 3 in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Static and dynamic statistics of instrumentation\n")
	fmt.Fprintf(&b, "%-10s | %6s %6s | %9s %9s %8s | %8s\n",
		"Program", "ld/st", "anchs", "uops/txn", "anch/txn", "time+", "Accuracy")
	for _, r := range rows {
		inc := fmt.Sprintf("%.1f%%", r.ExecTimeInc*100)
		if r.ExecTimeInc < 0.01 {
			inc = "<1%"
		}
		fmt.Fprintf(&b, "%-10s | %6d %6d | %9.1f %9.1f %8s | %7.1f%%\n",
			r.Bench, r.LdSt, r.Anchors, r.UopsPerTxn, r.AnchorsPerTxn, inc, r.Accuracy*100)
	}
	return b.String()
}

// Table4Row is one row of Table 4 (benchmark characteristics).
type Table4Row struct {
	Bench       string
	Description string
	ABs         int
	PctTM       float64
	S           float64
	AbtsPerC    float64
	Contention  string
}

// Table4 characterizes every benchmark on the baseline HTM.
func Table4(seed int64) ([]Table4Row, error) {
	var sw sweep[Table4Row]
	for _, b := range workloads.Names() {
		w, err := workloads.Get(b)
		if err != nil {
			return nil, err
		}
		cell := RunConfig{Benchmark: b, Mode: stagger.ModeHTM, Threads: PaperThreads, Seed: seed}
		seq, par := sw.add(sequential(cell)), sw.add(cell)
		sw.row(func(r []*Result) Table4Row {
			return Table4Row{
				Bench:       b,
				Description: w.Description,
				ABs:         len(w.Mod.Atomics),
				PctTM:       r[par].TMFraction(),
				S:           over(r[seq], r[par]),
				AbtsPerC:    r[par].AbortsPerCommit(),
				Contention:  w.Contention,
			}
		})
	}
	return sw.run()
}

// FormatTable4 renders Table 4 in the paper's layout.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Benchmark characteristics\n")
	fmt.Fprintf(&b, "%-10s %-52s %4s %5s %5s %7s %10s\n",
		"Program", "Description and input", "ABs", "%TM", "S", "Abts/C", "Contention")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-52s %4d %4.0f%% %5.1f %7.2f %10s\n",
			r.Bench, r.Description, r.ABs, r.PctTM*100, r.S, r.AbtsPerC, r.Contention)
	}
	return b.String()
}

// Figure7Row holds one benchmark's bars: speedup of each system at 16
// threads normalized to the eager-HTM baseline.
type Figure7Row struct {
	Bench    string
	HTM      float64 // 1.0 by construction
	AddrOnly float64
	StagSW   float64
	StagHW   float64
}

// Figure7 regenerates the performance comparison.
func Figure7(seed int64) ([]Figure7Row, error) {
	var sw sweep[Figure7Row]
	for _, b := range workloads.Names() {
		cell := func(m stagger.Mode) int {
			return sw.add(RunConfig{Benchmark: b, Mode: m, Threads: PaperThreads, Seed: seed})
		}
		base, addr := cell(stagger.ModeHTM), cell(stagger.ModeAddrOnly)
		stagSW, stagHW := cell(stagger.ModeStaggeredSW), cell(stagger.ModeStaggeredHW)
		sw.row(func(r []*Result) Figure7Row {
			return Figure7Row{
				Bench:    b,
				HTM:      1.0,
				AddrOnly: over(r[base], r[addr]),
				StagSW:   over(r[base], r[stagSW]),
				StagHW:   over(r[base], r[stagHW]),
			}
		})
	}
	return sw.run()
}

// FormatFigure7 renders the figure as a table plus ASCII bars.
func FormatFigure7(rows []Figure7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Performance normalized to eager HTM (16 threads)\n")
	fmt.Fprintf(&b, "%-10s %6s %9s %13s %10s\n", "Benchmark", "HTM", "AddrOnly", "Staggered+SW", "Staggered")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6.2f %9.2f %13.2f %10.2f\n",
			r.Bench, r.HTM, r.AddrOnly, r.StagSW, r.StagHW)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s HTM  %s\n", r.Bench, bar(r.HTM))
		fmt.Fprintf(&b, "%-10s Stag %s\n", "", bar(r.StagHW))
	}
	return b.String()
}

func bar(v float64) string {
	n := int(v*20 + 0.5)
	if n < 0 {
		n = 0
	}
	if n > 60 {
		n = 60
	}
	return strings.Repeat("#", n) + fmt.Sprintf(" %.2f", v)
}

// Figure8Row holds one benchmark's abort and wasted-cycle ratios for the
// baseline and staggered systems.
type Figure8Row struct {
	Bench                string
	HTMAbortsPerCommit   float64
	StagAbortsPerCommit  float64
	HTMWastedOverUseful  float64
	StagWastedOverUseful float64
}

// Figure8 regenerates the abort/wasted-cycle comparison.
func Figure8(seed int64) ([]Figure8Row, error) {
	var sw sweep[Figure8Row]
	for _, b := range workloads.Names() {
		base := sw.add(RunConfig{Benchmark: b, Mode: stagger.ModeHTM, Threads: PaperThreads, Seed: seed})
		stag := sw.add(RunConfig{Benchmark: b, Mode: stagger.ModeStaggeredHW, Threads: PaperThreads, Seed: seed})
		sw.row(func(r []*Result) Figure8Row {
			return Figure8Row{
				Bench:                b,
				HTMAbortsPerCommit:   r[base].AbortsPerCommit(),
				StagAbortsPerCommit:  r[stag].AbortsPerCommit(),
				HTMWastedOverUseful:  r[base].WastedOverUseful(),
				StagWastedOverUseful: r[stag].WastedOverUseful(),
			}
		})
	}
	return sw.run()
}

// FormatFigure8 renders the figure data.
func FormatFigure8(rows []Figure8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: (a) aborts per commit and (b) wasted/useful cycles (16 threads)\n")
	fmt.Fprintf(&b, "%-10s | %10s %10s | %10s %10s\n",
		"Benchmark", "(a) HTM", "(a) Stag", "(b) HTM", "(b) Stag")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %10.2f %10.2f | %10.2f %10.2f\n",
			r.Bench, r.HTMAbortsPerCommit, r.StagAbortsPerCommit,
			r.HTMWastedOverUseful, r.StagWastedOverUseful)
	}
	return b.String()
}

// Claims aggregates the headline numbers of Sections 6.2 and 6.3.
type ClaimsSummary struct {
	HarmonicMeanImprovement float64 // Fig. 7 StagHW vs HTM, harmonic mean
	MaxAbortReduction       float64 // Fig. 8(a), best case
	MeanAbortReduction      float64 // Fig. 8(a), mean excluding ssca2
	MeanWastedSavings       float64 // Fig. 8(b), mean excluding ssca2
	InstrumentedFraction    float64 // Table 3, anchors / loads+stores
	MinAccuracy             float64 // Table 3
}

// Claims computes the paper's summary statistics from the figure data.
func Claims(seed int64) (*ClaimsSummary, error) {
	f7, err := Figure7(seed)
	if err != nil {
		return nil, err
	}
	f8, err := Figure8(seed)
	if err != nil {
		return nil, err
	}
	t3, err := Table3(seed)
	if err != nil {
		return nil, err
	}
	cs := &ClaimsSummary{MinAccuracy: 1}

	// Harmonic mean of per-benchmark improvements.
	var invSum float64
	for _, r := range f7 {
		invSum += 1 / r.StagHW
	}
	cs.HarmonicMeanImprovement = float64(len(f7))/invSum - 1

	n := 0
	for _, r := range f8 {
		if r.Bench == "ssca2" { // too few aborts to be meaningful (paper)
			continue
		}
		if r.HTMAbortsPerCommit > 0 {
			red := 1 - r.StagAbortsPerCommit/r.HTMAbortsPerCommit
			cs.MeanAbortReduction += red
			if red > cs.MaxAbortReduction {
				cs.MaxAbortReduction = red
			}
		}
		if r.HTMWastedOverUseful > 0 {
			cs.MeanWastedSavings += 1 - r.StagWastedOverUseful/r.HTMWastedOverUseful
		}
		n++
	}
	cs.MeanAbortReduction /= float64(n)
	cs.MeanWastedSavings /= float64(n)

	var lds, anchs int
	for _, r := range t3 {
		lds += r.LdSt
		anchs += r.Anchors
		if r.Accuracy < cs.MinAccuracy {
			cs.MinAccuracy = r.Accuracy
		}
	}
	cs.InstrumentedFraction = float64(anchs) / float64(lds)
	return cs, nil
}

// FormatClaims renders the summary against the paper's claims.
func FormatClaims(cs *ClaimsSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline claims (paper -> measured)\n")
	fmt.Fprintf(&b, "harmonic-mean improvement:  24%%  -> %5.1f%%\n", cs.HarmonicMeanImprovement*100)
	fmt.Fprintf(&b, "max abort reduction:        89%%  -> %5.1f%%\n", cs.MaxAbortReduction*100)
	fmt.Fprintf(&b, "mean abort reduction:       64%%  -> %5.1f%%\n", cs.MeanAbortReduction*100)
	fmt.Fprintf(&b, "mean wasted-cycle savings:  43%%  -> %5.1f%%\n", cs.MeanWastedSavings*100)
	fmt.Fprintf(&b, "ld/st instrumented:         13%%  -> %5.1f%%\n", cs.InstrumentedFraction*100)
	fmt.Fprintf(&b, "min anchor accuracy:        95%%  -> %5.1f%%\n", cs.MinAccuracy*100)
	return b.String()
}

// LazyRow compares eager and lazy conflict detection for one benchmark:
// baseline speedups and the staggered improvement on each substrate. The
// paper's conclusion proposes extending the simulations to lazy TM
// protocols; staggered transactions are designed to be independent of
// the resolution policy, so the improvement should carry over.
type LazyRow struct {
	Bench      string
	EagerBase  float64 // 16-thread speedup over sequential, eager HTM
	LazyBase   float64 // same, lazy HTM
	EagerStagg float64 // staggered speedup normalized to eager baseline
	LazyStagg  float64 // staggered speedup normalized to lazy baseline
}

// FigureLazy runs the lazy-TM extension experiment over a representative
// benchmark subset (the high-contention winners plus a low-contention
// guard).
func FigureLazy(seed int64) ([]LazyRow, error) {
	var sw sweep[LazyRow]
	for _, b := range []string{"intruder", "kmeans", "list-hi", "memcached", "tsp", "vacation"} {
		cell := func(m stagger.Mode, threads int, lazy bool) int {
			return sw.add(RunConfig{Benchmark: b, Mode: m, Threads: threads, Seed: seed, Lazy: lazy})
		}
		eSeq, lSeq := cell(stagger.ModeHTM, 1, false), cell(stagger.ModeHTM, 1, true)
		eBase, lBase := cell(stagger.ModeHTM, PaperThreads, false), cell(stagger.ModeHTM, PaperThreads, true)
		eStag, lStag := cell(stagger.ModeStaggeredHW, PaperThreads, false), cell(stagger.ModeStaggeredHW, PaperThreads, true)
		sw.row(func(r []*Result) LazyRow {
			return LazyRow{
				Bench:      b,
				EagerBase:  over(r[eSeq], r[eBase]),
				LazyBase:   over(r[lSeq], r[lBase]),
				EagerStagg: over(r[eBase], r[eStag]),
				LazyStagg:  over(r[lBase], r[lStag]),
			}
		})
	}
	return sw.run()
}

// FormatFigureLazy renders the lazy-TM extension results.
func FormatFigureLazy(rows []LazyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lazy-TM extension: staggered transactions on both resolution policies\n")
	fmt.Fprintf(&b, "%-10s | %10s %10s | %12s %12s\n",
		"Benchmark", "eager S", "lazy S", "stag/eager", "stag/lazy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %10.1f %10.1f | %12.2f %12.2f\n",
			r.Bench, r.EagerBase, r.LazyBase, r.EagerStagg, r.LazyStagg)
	}
	return b.String()
}

// ScalingRow holds one thread-count point of a scaling curve.
type ScalingRow struct {
	Threads int
	HTM     float64 // speedup over 1-thread sequential
	Stag    float64
}

// Scaling sweeps thread counts for one benchmark under the baseline and
// staggered systems (the paper notes, e.g., that list-hi "stops scaling
// after 4 threads" on plain HTM).
func Scaling(bench string, seed int64) ([]ScalingRow, error) {
	var sw sweep[ScalingRow]
	cell := func(m stagger.Mode, threads int) int {
		return sw.add(RunConfig{Benchmark: bench, Mode: m, Threads: threads, Seed: seed})
	}
	seq := cell(stagger.ModeHTM, 1)
	for _, th := range []int{1, 2, 4, 8, 16} {
		base, stag := cell(stagger.ModeHTM, th), cell(stagger.ModeStaggeredHW, th)
		sw.row(func(r []*Result) ScalingRow {
			return ScalingRow{
				Threads: th,
				HTM:     over(r[seq], r[base]),
				Stag:    over(r[seq], r[stag]),
			}
		})
	}
	return sw.run()
}

// FormatScaling renders a scaling curve.
func FormatScaling(bench string, rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling: %s (speedup over sequential)\n", bench)
	fmt.Fprintf(&b, "%8s %8s %10s\n", "threads", "HTM", "Staggered")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %8.2f %10.2f\n", r.Threads, r.HTM, r.Stag)
	}
	return b.String()
}
