// Command staggersim runs one benchmark under one system configuration
// and prints detailed statistics: commits, aborts by reason, cycle
// breakdown, locking-policy activations, and instrumentation accuracy.
// Flags are grouped by task in -h; every group below has a matching
// section in the usage text.
//
// Usage:
//
//	staggersim -bench list-hi -mode staggered -threads 16
//	staggersim -bench tsp -mode htm -threads 1 -ops 2000
//
// Observability (metrics JSON and Perfetto timelines, internal/obs):
//
//	staggersim -bench list-hi -metrics > run.json
//	staggersim -bench list-hi -trace-out run-trace.json
//	staggersim -sched replay:fail.trace -trace-out fail-timeline.json
//
// Fault injection (all deterministic in -seed; without -watchdog a
// -chaos run is bounded by harness.ChaosWatchdog, 200M cycles):
//
//	staggersim -bench list-hi -chaos 0.01 -watchdog 500000000
//	staggersim -chaos-campaign -chaos-rates 0,0.002,0.01,0.05 -ops 240
//
// Schedule exploration (adversarial scheduling + serializability oracle):
//
//	staggersim -bench intruder -explore -explore-runs 100 -sched pct:3 -minimize
//	staggersim -bench list-hi -sched random -sched-seed 7 -oracle -record fail.trace
//	staggersim -sched replay:fail.trace
//
// The cell flags (-bench through -oracle, -chaos and -watchdog) lower
// through one harness.Cell, so -capacity with a backend other than
// limited is an error, as it is at staggerd. A trace's header is the
// cell it was recorded under: -sched replay:<file> reruns that cell and
// its picks, and any cell flag given overrides its field.
//
// The defects these modes exist to catch live in mutants/, one patch
// each; `make mutants` applies every patch to a throwaway worktree and
// requires its gates to fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// flagGroups organizes -h output by task. Every flag defined in main
// must appear in exactly one group (TestUsageCoversEveryFlag enforces
// it, so adding a flag without documenting it fails the build's tests).
var flagGroups = []struct {
	title string
	names []string
}{
	{"Run selection", []string{"bench", "mode", "backend", "capacity", "threads", "seed", "ops", "naive", "lazy", "speedup", "workers"}},
	{"Observability", []string{"metrics", "trace", "trace-out", "cpuprofile"}},
	{"Fault injection", []string{"chaos", "watchdog", "chaos-campaign", "chaos-rates"}},
	{"Scheduling and exploration", []string{"sched", "sched-seed", "oracle", "record", "explore",
		"explore-runs", "minimize", "explore-out"}},
}

// groupedUsage prints the grouped flag reference.
func groupedUsage(fs *flag.FlagSet) {
	o := fs.Output()
	fmt.Fprintf(o, "Usage: staggersim [flags]\n")
	fmt.Fprintf(o, "Runs one benchmark under one system configuration and prints detailed\n")
	fmt.Fprintf(o, "statistics; campaign flags switch to fault sweeps or schedule exploration.\n")
	fmt.Fprintf(o, "Run without -bench to list benchmarks.\n")
	for _, g := range flagGroups {
		fmt.Fprintf(o, "\n%s:\n", g.title)
		for _, name := range g.names {
			f := fs.Lookup(name)
			if f == nil {
				continue
			}
			def := ""
			if f.DefValue != "" && f.DefValue != "false" && f.DefValue != "0" {
				def = fmt.Sprintf(" (default %s)", f.DefValue)
			}
			fmt.Fprintf(o, "  -%-21s %s%s\n", f.Name, f.Usage, def)
		}
	}
}

// opts holds every parsed flag. defineFlags registers all of them on
// one FlagSet, so main (via flag.CommandLine) and the tests (via a
// scratch FlagSet) share a single definition of the command's surface —
// a new flag that is not also placed in flagGroups fails the test
// instead of silently missing from -h. The flags that select the
// simulation write straight into c, the one cell the command line
// describes.
type opts struct {
	fs *flag.FlagSet
	c  harness.Cell

	trace       *int
	metricsOut  *bool
	traceOut    *string
	speedup     *bool
	campaign    *bool
	rates       *string
	record      *string
	explore     *bool
	exploreRuns *int
	minimize    *bool
	exploreOut  *string
	workers     *int
	cpuprofile  *string
}

func defineFlags(fs *flag.FlagSet) *opts {
	o := &opts{fs: fs}
	c := &o.c
	fs.StringVar(&c.Bench, "bench", "", "benchmark name (empty: list them)")
	fs.StringVar(&c.Mode, "mode", "staggered", "system: htm | addronly | sw | staggered")
	// -backend validates at parse time: a typo fails with the registry's
	// name list before any simulation starts.
	fs.Var((*backendFlag)(&c.Backend), "backend", "concurrency-control backend: "+strings.Join(backend.Names(), " | ")+
		" (empty: htm under -mode htm, else staggered)")
	fs.IntVar(&c.Capacity, "capacity", 0, "speculative line capacity for -backend limited (0 = backend default)")
	fs.IntVar(&c.Threads, "threads", 16, "worker threads")
	fs.Int64Var(&c.Seed, "seed", 42, "workload seed (also seeds -chaos)")
	fs.IntVar(&c.Ops, "ops", 0, "total operations (0 = benchmark default)")
	fs.BoolVar(&c.Naive, "naive", false, "instrument every load/store (overhead study)")
	fs.BoolVar(&c.Lazy, "lazy", false, "lazy (commit-time) conflict detection")
	fs.Float64Var(&c.ChaosRate, "chaos", 0, "inject every fault class at this rate (0 = off)")
	fs.Uint64Var(&c.Watchdog, "watchdog", 0, "fail loudly past this many virtual cycles (0 = none; -chaos runs default to 200000000)")
	fs.StringVar(&c.Sched, "sched", "", "adversarial scheduler: random | pct:<d> (optionally @<window>); replay:<file> reruns a recorded trace's cell and schedule, with the cell flags given overriding its fields")
	fs.Int64Var(&c.SchedSeed, "sched-seed", 0, "scheduler seed (0 = workload seed)")
	fs.BoolVar(&c.Oracle, "oracle", false, "check every commit against the serializability oracle")
	o.trace = fs.Int("trace", 0, "print the first N transaction events (-1 = record all, print none)")
	o.metricsOut = fs.Bool("metrics", false, "print the run's metrics report as stable-sorted JSON instead of the summary")
	o.traceOut = fs.String("trace-out", "", "write a Chrome trace-event (Perfetto-loadable) timeline to this file; in -explore, a per-failure timeline next to each -explore-out trace")
	o.speedup = fs.Bool("speedup", false, "also run 1-thread baseline and report speedup")
	o.campaign = fs.Bool("chaos-campaign", false, "sweep fault rates across benchmarks and print degradation curves")
	o.rates = fs.String("chaos-rates", "", "comma-separated fault rates for -chaos-campaign")
	o.record = fs.String("record", "", "write the run's schedule trace to this file (needs -sched)")
	o.explore = fs.Bool("explore", false, "run a schedule-exploration campaign (many seeds of -sched, oracle on)")
	o.exploreRuns = fs.Int("explore-runs", harness.DefaultExploreRuns, "schedules per benchmark for -explore")
	o.minimize = fs.Bool("minimize", false, "delta-debug each failing schedule found by -explore")
	o.exploreOut = fs.String("explore-out", "", "directory for failing-schedule trace files (empty: don't write)")
	o.workers = fs.Int("workers", runtime.NumCPU(),
		"max concurrent simulation runs in campaigns (1 = sequential; output is identical either way)")
	o.cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the host process to this file (complete on a zero exit)")
	return o
}

// backendFlag is -backend: a registered backend name.
type backendFlag string

func (b *backendFlag) String() string { return string(*b) }

func (b *backendFlag) Set(s string) error {
	_, err := backend.Get(s)
	if err == nil {
		*b = backendFlag(s)
	}
	return err
}

// cell lowers the parsed flags to the one experiment cell the command
// line describes, through harness.Cell. Every sub-mode starts from it:
// the plain run and -speedup execute it as is, -explore and
// -chaos-campaign vary its schedule or fault rate. -bench may name
// several benchmarks for those, so the cell is checked and lowered under
// the first; Benchmark and TotalOps, the fields that depend on the
// benchmark, keep the command line's spelling, and benches splits it.
func (o *opts) cell() (harness.RunConfig, error) {
	var picks []uint32
	if file, ok := strings.CutPrefix(o.c.Sched, "replay:"); ok {
		var err error
		if picks, err = o.replay(file); err != nil {
			return harness.RunConfig{}, err
		}
	}
	c := o.c
	c.Bench = benches(o.c.Bench)[0]
	_, rc, err := c.Normalize()
	if err != nil {
		return harness.RunConfig{}, err
	}
	rc.Benchmark, rc.TotalOps = o.c.Bench, o.c.Ops
	rc.TraceN = *o.trace
	rc.Record = *o.record != ""
	rc.ReplayPicks = picks
	return rc, nil
}

// replay makes the cell a trace file's and returns its picks: the run
// it recorded, except for the cell flags given on the command line.
// Every cell flag writes into o.c, so once o.c holds the trace's cell,
// setting each given flag again to the value it parsed to writes that
// value over the trace's (for the other flags this is a no-op). -sched
// is the replay itself: the trace's spec is the one it replays under.
func (o *opts) replay(file string) ([]uint32, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	tc, picks, err := harness.DecodeTrace(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	var given []*flag.Flag
	var vals []string
	o.fs.Visit(func(f *flag.Flag) {
		if f.Name != "sched" {
			given, vals = append(given, f), append(vals, f.Value.String())
		}
	})
	o.c = tc
	for i, f := range given {
		if err := f.Value.Set(vals[i]); err != nil {
			return nil, err
		}
	}
	return picks, nil
}

// benches splits a comma-separated -bench list; empty means all.
func benches(list string) []string {
	if list == "" {
		return workloads.Names()
	}
	names := strings.Split(list, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

// die prints err (and the stack, if a cell of a sweep panicked) and
// exits with code.
func die(code int, err error) {
	fmt.Fprintln(os.Stderr, "staggersim:", err)
	os.Stderr.Write(harness.PanicStack(err))
	os.Exit(code)
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Usage = func() { groupedUsage(flag.CommandLine) }
	flag.Parse()
	harness.SetWorkers(*o.workers)

	rc, err := o.cell()
	if err != nil {
		die(2, err)
	}
	stopProfile, err := harness.CPUProfile(*o.cpuprofile)
	if err != nil {
		die(2, err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			die(1, err)
		}
	}()
	switch {
	case *o.campaign:
		runCampaign(rc, *o.rates)
	case *o.explore:
		runExplore(rc, *o.exploreRuns, *o.minimize, *o.exploreOut, *o.traceOut)
	default:
		runCell(rc, o)
	}
}

// runCell executes the cell and prints its statistics, plus whatever
// exports the flags ask for.
func runCell(rc harness.RunConfig, o *opts) {
	if rc.Benchmark == "" {
		fmt.Println("available benchmarks:")
		for _, n := range workloads.Names() {
			w, _ := workloads.Get(n)
			fmt.Printf("  %-10s %s\n", n, w.Description)
		}
		fmt.Println("\navailable backends (-backend):")
		for _, line := range backend.Summaries() {
			fmt.Printf("  %s\n", line)
		}
		return
	}
	if rc.Record && rc.Sched == "" {
		die(2, fmt.Errorf("-record needs -sched (there is no schedule to record otherwise)"))
	}
	if *o.traceOut != "" {
		if rc.TraceN == 0 {
			rc.TraceN = -1 // whole run
		}
		rc.ExtTrace = true
	}
	res, err := harness.Run(rc)
	if err != nil {
		die(1, err)
	}
	if *o.metricsOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(obs.Snapshot(res)); err != nil {
			die(1, err)
		}
	} else {
		printResult(res)
	}
	if *o.traceOut != "" {
		meta, err := obs.TraceMetaOf(res.Config)
		if err != nil {
			die(1, err)
		}
		if err := writeTraceFile(*o.traceOut, meta, res.Trace); err != nil {
			die(1, err)
		}
		fmt.Fprintf(os.Stderr, "trace       %d events -> %s (load in Perfetto or chrome://tracing)\n",
			len(res.Trace), *o.traceOut)
	}
	if *o.speedup {
		s, _, err := harness.Speedup(rc)
		if err != nil {
			die(1, err)
		}
		fmt.Printf("\nspeedup over 1-thread sequential: %.2fx\n", s)
	}
	if *o.trace > 0 && len(res.Trace) > 0 {
		fmt.Printf("\ntrace (first %d events):\n%s", len(res.Trace), htm.FormatTrace(res.Trace))
	}
	if *o.record != "" {
		tr, err := harness.SchedTrace(res.Config, res.SchedPicks)
		if err == nil {
			err = tr.WriteFile(*o.record)
		}
		if err != nil {
			die(1, err)
		}
		fmt.Printf("recorded    %d scheduler decisions -> %s\n", len(res.SchedPicks), *o.record)
	}
	failed := false
	if res.VerifyErr != nil {
		fmt.Fprintln(os.Stderr, "VERIFY FAILED:", res.VerifyErr)
		failed = true
	}
	if res.OracleErr != nil {
		fmt.Fprintln(os.Stderr, "ORACLE FAILED:", res.OracleErr)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// runExplore drives a schedule-exploration campaign over one or more
// benchmarks (comma-separated), printing a per-benchmark summary and
// exiting nonzero if any schedule produced a violation.
func runExplore(rc harness.RunConfig, runs int, minimize bool, outDir, traceOut string) {
	if rc.Benchmark == "" {
		die(2, fmt.Errorf("-explore needs -bench (comma-separated list accepted)"))
	}
	anyFail := false
	for _, bench := range benches(rc.Benchmark) {
		ec := harness.ExploreOf(rc)
		ec.Benchmark, ec.Runs, ec.Minimize = bench, runs, minimize
		rep, err := harness.Explore(ec)
		if err != nil {
			die(1, err)
		}
		fmt.Printf("%-10s %s %2d threads: %d schedules, %d commits validated, %d failures\n",
			bench, rc.Mode, rc.Threads, rep.Runs, rep.Commits, len(rep.Failures))
		for i, f := range rep.Failures {
			anyFail = true
			fmt.Printf("  failure %d (sched seed %d, %d decisions", i, f.SchedSeed, len(f.Picks))
			if f.Minimized != nil {
				fmt.Printf(", minimized to %d in %d probes", len(f.Minimized), f.Probes)
			}
			fmt.Printf("): %v\n", f.Err)
			if outDir != "" {
				path := fmt.Sprintf("%s/%s-fail-%d.trace", outDir, bench, i)
				tr, err := f.Trace(ec)
				if err == nil {
					err = tr.WriteFile(path)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "staggersim:", err)
				} else {
					fmt.Printf("    trace -> %s (replay with -sched replay:%s)\n", path, path)
				}
			}
			if traceOut != "" {
				path := fmt.Sprintf("%s-%s-fail-%d.json", strings.TrimSuffix(traceOut, ".json"), bench, i)
				if err := exportFailureTimeline(ec, &f, path); err != nil {
					fmt.Fprintln(os.Stderr, "staggersim:", err)
				} else {
					fmt.Printf("    timeline -> %s (load in Perfetto)\n", path)
				}
			}
		}
	}
	if anyFail {
		os.Exit(1)
	}
}

// exportFailureTimeline replays one exploration failure with extended
// tracing and writes its Perfetto timeline. Replay uses the recorded
// decision sequence (the minimized prefix when available), so the
// timeline shows exactly the schedule the minimizer reduced the failure
// to — tagged with the cell, seeds included, that regenerates it from
// scratch.
func exportFailureTimeline(ec harness.ExploreConfig, f *harness.ExploreFailure, path string) error {
	rc := ec.RunConfig()
	rc.SchedSeed = f.SchedSeed
	picks := f.Picks
	tag := "full"
	if f.Minimized != nil {
		picks = f.Minimized
		tag = "minimized"
	}
	rc.ReplayPicks = picks
	rc.TraceN = -1
	rc.ExtTrace = true
	res, err := harness.Run(rc)
	if err != nil {
		return err
	}
	meta, err := obs.TraceMetaOf(res.Config)
	if err != nil {
		return err
	}
	meta.Extra = map[string]string{
		"failure":        f.Err.Error(),
		"replay":         tag,
		"decision_count": fmt.Sprint(len(picks)),
	}
	return writeTraceFile(path, meta, res.Trace)
}

// writeTraceFile exports events as a Chrome trace-event file.
func writeTraceFile(path string, meta obs.TraceMeta, events []htm.TraceEvent) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(out, meta, events); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// campaign is the fault-rate sweep -chaos-campaign runs over the cell.
func campaign(rc harness.RunConfig, rateList string) (harness.ChaosSweep, error) {
	cs := harness.ChaosSweep{Benchmarks: benches(rc.Benchmark), Cell: rc}
	if rateList != "" {
		for _, f := range strings.Split(rateList, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return cs, fmt.Errorf("bad -chaos-rates entry %q: %v", f, err)
			}
			cs.Rates = append(cs.Rates, r)
		}
	}
	return cs, nil
}

// runCampaign sweeps fault rates across benchmarks and prints
// graceful-degradation curves.
func runCampaign(rc harness.RunConfig, rateList string) {
	cs, err := campaign(rc, rateList)
	if err != nil {
		die(2, err)
	}
	cells, err := harness.RunChaosSweep(cs)
	fmt.Print(harness.FormatChaos(cells))
	if err != nil {
		die(1, err)
	}
}

func printResult(r *harness.Result) {
	s := &r.Stats
	fmt.Printf("benchmark   %s  (backend %s, %s, %d threads, seed %d)\n",
		r.Config.Benchmark, r.Config.Backend, r.Config.Mode, r.Config.Threads, r.Config.Seed)
	fmt.Printf("makespan    %d cycles\n", s.Makespan)
	fmt.Printf("commits     %d  (irrevocable %d = %.1f%%)\n",
		s.Commits, s.IrrevocableCommits, 100*s.IrrevocableFraction())
	fmt.Printf("aborts      %d total (%.2f per commit): conflict %d, overflow %d, explicit %d, lock-held %d, spurious %d\n",
		s.TotalAborts(), s.AbortsPerCommit(),
		s.Aborts[htm.AbortConflict], s.Aborts[htm.AbortOverflow],
		s.Aborts[htm.AbortExplicit], s.Aborts[htm.AbortLockHeld],
		s.Aborts[htm.AbortSpurious])
	fmt.Printf("cycles      useful-tx %d, wasted-tx %d (W/U %.2f)\n",
		s.UsefulTxCycles, s.WastedTxCycles, s.WastedOverUseful())
	fmt.Printf("waiting     lock %d, backoff %d, global %d, fault %d\n",
		s.WaitCycles[htm.WaitLock], s.WaitCycles[htm.WaitBackoff],
		s.WaitCycles[htm.WaitGlobal], s.WaitCycles[htm.WaitFault])
	if r.Faults.Total() > 0 {
		fmt.Printf("chaos       injected: aborts %d, nt-delays %d, lock-drops %d, jitters %d\n",
			r.Faults.Aborts, r.Faults.NTDelays, r.Faults.LockDrops, r.Faults.Jitters)
	}
	fmt.Printf("tm fraction %.1f%% of cycles, %.0f tx-uops per txn\n",
		100*r.TMFraction(), r.UopsPerTxn())
	fmt.Printf("memory      L1 %d, L2 %d, L3/transfer %d, DRAM %d\n",
		s.L1Hits, s.L2Hits, s.L3Hits, s.MemAccesses)
	if r.Config.Mode.Instrumented() {
		mt := &r.Metrics
		fmt.Printf("compiler    %d/%d loads+stores instrumented as anchors\n",
			r.StaticAnchors, r.StaticAccesses)
		fmt.Printf("alps        %d visits (%.1f per txn), %d locks acquired, %d timeouts\n",
			mt.ALPVisits, r.AnchorsPerTxn(), mt.LocksAcquired, mt.LockTimeouts)
		fmt.Printf("policy      precise %d, coarse %d, promote %d, training %d\n",
			mt.ActPrecise, mt.ActCoarse, mt.ActPromote, mt.ActTraining)
		fmt.Printf("accuracy    %.1f%% (%d/%d), sw-misses %d\n",
			100*mt.Accuracy(), mt.AccHits, mt.AccTotal, mt.SWMisses)
	}
	fmt.Printf("locality    LA=%v LP=%v\n", r.LA, r.LP)
	ids := make([]int, 0, len(r.PerAB))
	for id := range r.PerAB {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		m := r.PerAB[id]
		fmt.Printf("  ab %-18s commits %5d, conf %5d, deep %4d | precise %4d coarse %4d promote %4d training %4d\n",
			m.Name, m.Commits, m.ConfAborts, m.Deep, m.Precise, m.Coarse, m.Promote, m.Training)
	}
	if r.VerifyErr == nil {
		fmt.Println("verify      OK")
	}
	if r.Config.Oracle && r.OracleErr == nil {
		fmt.Printf("oracle      OK (%d commits serializable)\n", r.OracleCommits)
	}
}
