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
// Fault injection (all deterministic in -seed):
//
//	staggersim -bench list-hi -chaos 0.01 -watchdog 500000000
//	staggersim -chaos-campaign -chaos-rates 0,0.002,0.01,0.05 -ops 240
//
// Schedule exploration (adversarial scheduling + serializability oracle):
//
//	staggersim -bench intruder -explore -explore-runs 100 -sched pct:3 -minimize
//	staggersim -bench list-hi -sched random -sched-seed 7 -oracle -record fail.trace
//	staggersim -sched replay:fail.trace -oracle
//
// Static verification (IR-level invariants + static/dynamic conformance):
//
//	staggersim -verify-static
//	staggersim -verify-static -bench vacation,tsp -naive
//	staggersim -verify-conflicts -json
//	staggersim -verify-conflicts -bench list-hi -inject-underlock
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
	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stagger"
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
	{"Fault injection", []string{"chaos", "chaos-abort", "chaos-ntdelay", "chaos-lockdrop",
		"chaos-jitter", "watchdog", "chaos-campaign", "chaos-rates"}},
	{"Scheduling and exploration", []string{"sched", "sched-seed", "oracle", "record", "explore",
		"explore-runs", "minimize", "explore-out", "unsafe-early-release"}},
	{"Static verification", []string{"verify-static", "verify-conflicts", "conflict-seeds", "json",
		"inject-drift", "inject-underlock", "inject-overlock"}},
}

// groupedUsage prints the grouped flag reference.
func groupedUsage(fs *flag.FlagSet) {
	o := fs.Output()
	fmt.Fprintf(o, "Usage: staggersim [flags]\n")
	fmt.Fprintf(o, "Runs one benchmark under one system configuration and prints detailed\n")
	fmt.Fprintf(o, "statistics; campaign flags switch to fault sweeps, schedule exploration,\n")
	fmt.Fprintf(o, "or static verification. Run without -bench to list benchmarks.\n")
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
// instead of silently missing from -h.
type opts struct {
	fs *flag.FlagSet

	bench, mode                                         *string
	backendName                                         *string
	capacity                                            *int
	threads                                             *int
	seed                                                *int64
	ops                                                 *int
	naive, lazy                                         *bool
	trace                                               *int
	metricsOut                                          *bool
	traceOut                                            *string
	speedup                                             *bool
	chaosRate, chaosAbort, chaosNT, chaosDrop, chaosJit *float64
	watchdog                                            *uint64
	campaign                                            *bool
	rates, schedSpec                                    *string
	schedSeed                                           *int64
	oracleOn                                            *bool
	record                                              *string
	explore                                             *bool
	exploreRuns                                         *int
	minimize                                            *bool
	exploreOut                                          *string
	unsafeEarly, verifyStatic, injectDrift              *bool
	verifyConflicts                                     *bool
	conflictSeeds                                       *string
	jsonOut                                             *bool
	injectUnder, injectOver                             *bool
	workers                                             *int
	cpuprofile                                          *string
}

func defineFlags(fs *flag.FlagSet) *opts {
	o := &opts{
		fs:          fs,
		bench:       fs.String("bench", "", "benchmark name (empty: list them)"),
		mode:        fs.String("mode", "staggered", "system: htm | addronly | sw | staggered"),
		capacity:    fs.Int("capacity", 0, "speculative line capacity for -backend limited (0 = backend default)"),
		threads:     fs.Int("threads", 16, "worker threads"),
		seed:        fs.Int64("seed", 42, "workload seed"),
		ops:         fs.Int("ops", 0, "total operations (0 = benchmark default)"),
		naive:       fs.Bool("naive", false, "instrument every load/store (overhead study)"),
		lazy:        fs.Bool("lazy", false, "lazy (commit-time) conflict detection"),
		trace:       fs.Int("trace", 0, "print the first N transaction events (-1 = record all, print none)"),
		metricsOut:  fs.Bool("metrics", false, "print the run's metrics report as stable-sorted JSON instead of the summary"),
		traceOut:    fs.String("trace-out", "", "write a Chrome trace-event (Perfetto-loadable) timeline to this file; in -explore, a per-failure timeline next to each -explore-out trace"),
		speedup:     fs.Bool("speedup", false, "also run 1-thread baseline and report speedup"),
		chaosRate:   fs.Float64("chaos", 0, "inject every fault class at this rate (0 = off)"),
		chaosAbort:  fs.Float64("chaos-abort", 0, "spurious-abort rate (overrides -chaos)"),
		chaosNT:     fs.Float64("chaos-ntdelay", 0, "NT-store delay rate (overrides -chaos)"),
		chaosDrop:   fs.Float64("chaos-lockdrop", 0, "lost-lock-release rate (overrides -chaos)"),
		chaosJit:    fs.Float64("chaos-jitter", 0, "per-core stall-jitter rate (overrides -chaos)"),
		watchdog:    fs.Uint64("watchdog", 0, "fail loudly past this many virtual cycles (0 = none)"),
		campaign:    fs.Bool("chaos-campaign", false, "sweep fault rates across benchmarks and print degradation curves"),
		rates:       fs.String("chaos-rates", "", "comma-separated fault rates for -chaos-campaign"),
		schedSpec:   fs.String("sched", "", "adversarial scheduler: random | pct:<d> | replay:<file> (optionally @<window>)"),
		schedSeed:   fs.Int64("sched-seed", 0, "scheduler seed (0 = workload seed)"),
		oracleOn:    fs.Bool("oracle", false, "check every commit against the serializability oracle"),
		record:      fs.String("record", "", "write the run's schedule trace to this file (needs -sched)"),
		explore:     fs.Bool("explore", false, "run a schedule-exploration campaign (many seeds of -sched, oracle on)"),
		exploreRuns: fs.Int("explore-runs", harness.DefaultExploreRuns, "schedules per benchmark for -explore"),
		minimize:    fs.Bool("minimize", false, "delta-debug each failing schedule found by -explore"),
		exploreOut:  fs.String("explore-out", "", "directory for failing-schedule trace files (empty: don't write)"),
		unsafeEarly: fs.Bool("unsafe-early-release", false, "enable the test-only broken irrevocable fallback (demo: -explore catches it)"),
		verifyStatic: fs.Bool("verify-static", false,
			"verify anchor-scope, lock-order, coverage, and static/dynamic conformance (all benchmarks unless -bench)"),
		injectDrift: fs.Bool("inject-drift", false, "enable the test-only vacation IR-drift mutation (demo: -verify-static catches it)"),
		verifyConflicts: fs.Bool("verify-conflicts", false,
			"verify lock sufficiency, lock precision, and dynamic conflict-pair containment over the static may-conflict matrix (all benchmarks unless -bench)"),
		conflictSeeds: fs.String("conflict-seeds", "42,43,44",
			"comma-separated workload seeds for the dynamic containment runs of -verify-conflicts"),
		jsonOut: fs.Bool("json", false, "print verify-mode findings as stable-sorted JSON (for -verify-static / -verify-conflicts)"),
		injectUnder: fs.Bool("inject-underlock", false,
			"seed an under-lock mutation: clear one effective ALP (demo: -verify-conflicts sufficiency catches it)"),
		injectOver: fs.Bool("inject-overlock", false,
			"seed an over-lock mutation: add one spurious ALP on a read-only class (demo: -verify-conflicts precision catches it)"),
		workers: fs.Int("workers", runtime.NumCPU(),
			"max concurrent simulation runs in campaigns (1 = sequential; output is identical either way)"),
		cpuprofile: fs.String("cpuprofile", "", "write a pprof CPU profile of the host process to this file (complete on a zero exit)"),
	}
	// -backend validates at parse time: a typo fails with the registry's
	// name list before any simulation starts.
	o.backendName = new(string)
	fs.Func("backend", "concurrency-control backend: "+strings.Join(backend.Names(), " | ")+
		" (empty: htm under -mode htm, else staggered)", func(s string) error {
		if _, err := backend.Get(s); err != nil {
			return err
		}
		*o.backendName = s
		return nil
	})
	return o
}

// cell lowers the parsed flags to the one experiment cell the command
// line describes. Every sub-mode starts from it: the plain run and
// -speedup execute it as is, -explore and -chaos-campaign vary its
// schedule or fault rate, and the -verify modes run it per benchmark with
// their own recorder. -bench may name several benchmarks for those; the
// cell carries the flag verbatim and benches splits it.
func (o *opts) cell() (harness.RunConfig, error) {
	// Replaying a trace file reproduces its run: the header supplies the
	// benchmark, system (mode, backend, capacity), thread count, and seeds
	// unless flags override them.
	if spec, err := sched.Parse(*o.schedSpec); *o.schedSpec != "" && err == nil && spec.Kind == "replay" {
		if tr, err := sched.ReadTraceFile(spec.File); err == nil {
			set := map[string]bool{}
			o.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
			if !set["bench"] {
				*o.bench = tr.Bench
			}
			if !set["mode"] {
				*o.mode = tr.Mode
			}
			if !set["backend"] {
				*o.backendName = tr.Backend
			}
			if !set["capacity"] {
				*o.capacity = tr.Capacity
			}
			if !set["threads"] {
				*o.threads = tr.Threads
			}
			if !set["seed"] {
				*o.seed = tr.WlSeed
			}
			if !set["ops"] {
				*o.ops = tr.Ops
			}
		}
	}
	m, err := stagger.ParseMode(*o.mode)
	if err != nil {
		return harness.RunConfig{}, err
	}
	rc := harness.RunConfig{
		Benchmark: *o.bench,
		Mode:      m,
		Backend:   *o.backendName,
		Capacity:  *o.capacity,
		Threads:   *o.threads,
		Seed:      *o.seed,
		TotalOps:  *o.ops,
		Naive:     *o.naive,
		Lazy:      *o.lazy,
		TraceN:    *o.trace,
		Watchdog:  *o.watchdog,
		Sched:     *o.schedSpec,
		SchedSeed: *o.schedSeed,
		Record:    *o.record != "",
		Oracle:    *o.oracleOn,
	}
	if *o.unsafeEarly {
		// Only when asked: a Stagger override makes the cell uncacheable.
		scfg := stagger.DefaultConfig(m)
		scfg.UnsafeEarlyGlobalRelease = true
		rc.Stagger = &scfg
	}
	ccfg := chaos.Scaled(*o.chaosRate, *o.seed)
	if *o.chaosAbort > 0 {
		ccfg.AbortRate = *o.chaosAbort
	}
	if *o.chaosNT > 0 {
		ccfg.NTDelayRate = *o.chaosNT
	}
	if *o.chaosDrop > 0 {
		ccfg.LockDropRate = *o.chaosDrop
	}
	if *o.chaosJit > 0 {
		ccfg.JitterRate = *o.chaosJit
	}
	if ccfg.Enabled() {
		rc.Chaos = &ccfg
	}
	return rc, nil
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
	workloads.DriftVacationKind = *o.injectDrift

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
	case *o.verifyStatic:
		runVerifyStatic(rc, *o.jsonOut)
	case *o.verifyConflicts:
		runVerifyConflicts(rc, *o.conflictSeeds, *o.injectUnder, *o.injectOver, *o.jsonOut)
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
		meta := obs.TraceMetaOf(res.Config)
		if cp := rc.Chaos; cp != nil {
			meta.Extra = map[string]string{"chaos": fmt.Sprintf("abort=%g ntdelay=%g lockdrop=%g jitter=%g",
				cp.AbortRate, cp.NTDelayRate, cp.LockDropRate, cp.JitterRate)}
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
		if err := harness.SchedTrace(res.Config, res.SchedPicks).WriteFile(*o.record); err != nil {
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
				if err := f.Trace(ec).WriteFile(path); err != nil {
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
// to — tagged with the seeds needed to regenerate it from scratch.
func exportFailureTimeline(ec harness.ExploreConfig, f *harness.ExploreFailure, path string) error {
	rc := ec.RunConfig()
	spec, err := sched.Parse(rc.Sched)
	if err != nil {
		return err
	}
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
	meta := obs.TraceMetaOf(res.Config)
	meta.SchedSeed = f.SchedSeed
	meta.Extra = map[string]string{
		"failure":        f.Err.Error(),
		"replay":         tag,
		"decision_count": fmt.Sprint(len(picks)),
		"window":         fmt.Sprint(spec.Window),
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
