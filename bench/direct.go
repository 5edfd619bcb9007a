package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/workloads"
)

// The direct workloads call the harness in-process, the way cmd/paper and
// cmd/staggersim do. Before every pass they pin the sweep runner to one
// worker and drop harness's global result cache, which would otherwise
// turn every pass after the first into map lookups.
func prePass() {
	harness.SetWorkers(1)
	harness.ClearCache()
}

// ---- paper -----------------------------------------------------------

// paperNominalPassS is one cmd/paper "all" sequence on the reference box.
const (
	paperNominalPassS = 5.4
	paperMaxPasses    = 5
)

// paperPass is exactly cmd/paper's "all" sequence, in-process: every
// table and figure generator and its formatter, in cmd/paper's order,
// printed the way cmd/paper prints them. It returns the bytes cmd/paper
// would have written and the headline harmonic-mean improvement
// harness.Claims reports (the gain is 1 + that).
func (r *run) paperPass(tr *tracer, group string) (out []byte, improvement float64, err error) {
	var buf bytes.Buffer
	gens := []struct {
		name string
		run  func() (string, error)
	}{
		{"table1", func() (string, error) {
			rows, err := harness.Table1(r.seed)
			return harness.FormatTable1(rows), err
		}},
		{"table2", func() (string, error) { return harness.Table2(), nil }},
		{"table3", func() (string, error) {
			rows, err := harness.Table3(r.seed)
			return harness.FormatTable3(rows), err
		}},
		{"table4", func() (string, error) {
			rows, err := harness.Table4(r.seed)
			return harness.FormatTable4(rows), err
		}},
		{"figure7", func() (string, error) {
			rows, err := harness.Figure7(r.seed)
			return harness.FormatFigure7(rows), err
		}},
		{"figure8", func() (string, error) {
			rows, err := harness.Figure8(r.seed)
			return harness.FormatFigure8(rows), err
		}},
		{"claims", func() (string, error) {
			cs, err := harness.Claims(r.seed)
			if err != nil {
				return "", err
			}
			improvement = cs.HarmonicMeanImprovement
			return harness.FormatClaims(cs), nil
		}},
	}
	for _, g := range gens {
		id := tr.begin("harness."+g.name, group)
		text, gerr := g.run()
		tr.end(id)
		r.op(gerr)
		if gerr != nil {
			return nil, 0, fmt.Errorf("paper %s: %w", g.name, gerr)
		}
		fmt.Fprintln(&buf, text)
	}
	return buf.Bytes(), improvement, nil
}

func runPaper(r *run) error {
	if r.trace {
		return tracePaper(r)
	}
	// A CLI user pays the cold pass, so there is no warm-up and nothing to
	// set up: set-up is process start plus the first calibration.
	var ps passStats
	var hmeans []float64
	for p, n := 0, r.passCount(paperNominalPassS, paperMaxPasses); p < n; p++ {
		err := r.timedPass(&ps, func() ([]float64, string, error) {
			out, improvement, err := r.paperPass(nil, "")
			hmeans = append(hmeans, 1+improvement)
			return nil, sha(out), err
		})
		if err != nil {
			return err
		}
	}
	for _, s := range ps.passS { // the job a cmd/paper user asks for is the whole sequence
		ps.jobMS = append(ps.jobMS, s*1e3)
	}
	r.sameDigests("sim_digest", ps.digests) // the output bytes are every simulated number the paper prints
	r.check("stagger_gain_hmean_exact", spread(hmeans) == 0, "%v", hmeans)
	r.set("stagger_gain_hmean", hmeans[0], len(hmeans))
	return r.finishEndToEnd(&ps, 7, "generators")
}

// tracePaper: one untraced pass as the reference, one pass with a span
// per generator, one pass on every core for the sweep runner's speedup,
// then the paper's operating point cell by cell (ten benchmarks x {htm,
// staggered} at 16 threads) through the staged path.
func tracePaper(r *run) error {
	var plainOut []byte
	var improvement float64
	plain, _, err := r.referencePass(func() (_ []float64, _ string, err error) {
		plainOut, improvement, err = r.paperPass(nil, "")
		return nil, "", err
	})
	if err != nil {
		return err
	}

	r.calibrate()
	prePass()
	start := time.Now()
	tracedOut, _, err := r.paperPass(r.tr, "paper")
	if err != nil {
		return err
	}
	r.set("host.tracing_overhead_ratio", time.Since(start).Seconds()/plain, 1)
	r.check("sim_digest", bytes.Equal(plainOut, tracedOut), "sha256 %s, traced pass identical", sha(plainOut))
	for name, t := range r.tr.totals() {
		if name != "harness.table2" {
			r.set("harness.gen_s."+name[len("harness."):], float64(t.DurNS)/1e9, t.Count)
		}
	}

	r.calibrate()
	harness.SetWorkers(runtime.NumCPU())
	harness.ClearCache()
	start = time.Now()
	_, _, err = r.paperPass(nil, "")
	harness.SetWorkers(1)
	if err != nil {
		return err
	}
	r.set("harness.sweep_speedup", plain/time.Since(start).Seconds(), 1)

	// The t16 matrix.
	var agg cellAgg
	var first []staged
	var invSum float64
	for _, b := range workloads.Names() {
		var pair [2]staged
		for i, bk := range []string{"htm", "staggered"} {
			rc := harness.RunConfig{Benchmark: b, Backend: bk, Threads: harness.PaperThreads, Seed: r.seed}
			st, err := stagedCell(r.tr, rc)
			r.op(cellErr(st, err))
			if err != nil {
				return err
			}
			agg.add(rc, st)
			pair[i] = st
		}
		if first == nil {
			first = pair[:]
		}
		gain := float64(pair[0].res.Makespan()) / float64(pair[1].res.Makespan())
		invSum += 1 / gain
		r.set("stagger."+b+".gain_t16", gain, 1)
		ev := events(&pair[0].res.Stats) + events(&pair[1].res.Stats)
		r.set("workloads."+b+".ns_per_event.t16", float64(pair[0].runNS+pair[1].runNS)/float64(ev), 2)
	}
	r.set("stagger.gain_hmean_t16", 1+improvement, 1)
	// The matrix runs the backends "htm" and "staggered"; the tables run
	// the modes of the same names. The two must model the same machine,
	// to the last bit: this is harness.Claims' own arithmetic.
	matrix := float64(len(workloads.Names()))/invSum - 1
	r.check("matrix_equals_claims", matrix == improvement, "harmonic-mean improvement: t16 matrix %v, harness.Claims %v", matrix, improvement)
	agg.report(r)
	r.checkCoverage()
	if err := r.stagedEqualsRun(first); err != nil {
		return err
	}
	return r.probes()
}

// cellErr folds a run error and a cell's own verdicts into one failure.
func cellErr(st staged, err error) error {
	switch {
	case err != nil:
		return err
	case st.res.VerifyErr != nil:
		return fmt.Errorf("%s: verify: %w", cellName(st.res.Config), st.res.VerifyErr)
	case st.res.OracleErr != nil:
		return fmt.Errorf("%s: oracle: %w", cellName(st.res.Config), st.res.OracleErr)
	}
	return nil
}

// ---- seq-t1 ----------------------------------------------------------

const (
	seqNominalPassS = 2.8
	seqMaxPasses    = 7
)

var (
	seqBenches  = []string{"list-hi", "list-lo", "tsp", "vacation", "kmeans", "memcached"}
	seqBackends = []string{"htm", "staggered", "occ"}
)

// seqCells lists the pass seed-major: one seed's 18 cells (every
// benchmark under every backend) are one job, the unit job_ms_p50 is the
// median of. Jobs are alike by construction; single cells are not — six
// benchmarks make six latency clusters, and a median that falls in the
// gap between the third and fourth says nothing steady.
func (r *run) seqCells() []harness.RunConfig {
	var cells []harness.RunConfig
	for s := 0; s < r.sz.seqSeeds; s++ {
		for _, b := range seqBenches {
			for _, bk := range seqBackends {
				cells = append(cells, harness.RunConfig{Benchmark: b, Backend: bk, Threads: 1, Seed: r.seed + int64(s)})
			}
		}
	}
	return cells
}

// seqJobCells is how many cells share a seed.
var seqJobCells = len(seqBenches) * len(seqBackends)

// digestLine is one cell's contribution to sim_digest.
func digestLine(rc harness.RunConfig, s *htm.Stats) string {
	return fmt.Sprintf("%s events=%d makespan=%d commits=%d aborts=%d",
		cellName(rc), events(s), s.Makespan, s.Commits, s.TotalAborts())
}

// seqPass runs every cell through harness.Run and returns per-job
// latencies, the pass digest, the htm cells' conflict aborts, and each
// cell's statistics.
func (r *run) seqPass(cells []harness.RunConfig) (jobMS []float64, dig string, htmConflicts uint64, stats []htm.Stats, err error) {
	lines := make([]string, 0, len(cells))
	jobStart := time.Now()
	for i, rc := range cells {
		res, rerr := harness.Run(rc)
		r.op(cellErr(staged{res: res}, rerr))
		if rerr != nil {
			return nil, "", 0, nil, rerr
		}
		lines = append(lines, digestLine(rc, &res.Stats))
		stats = append(stats, res.Stats)
		if rc.Backend == "htm" {
			htmConflicts += res.Stats.Aborts[htm.AbortConflict]
		}
		if (i+1)%seqJobCells == 0 {
			now := time.Now()
			jobMS = append(jobMS, now.Sub(jobStart).Seconds()*1e3)
			jobStart = now
		}
	}
	return jobMS, digest(lines), htmConflicts, stats, nil
}

func runSeq(r *run) error {
	setupStart := time.Now()
	cells := r.seqCells()
	prePass()
	if _, _, _, _, err := r.seqPass(cells); err != nil { // warm-up
		return err
	}
	ps := passStats{setupS: []float64{time.Since(setupStart).Seconds()}}
	if r.trace {
		return traceSeq(r, cells)
	}
	var conflicts uint64
	for p, n := 0, r.passCount(seqNominalPassS, seqMaxPasses); p < n; p++ {
		err := r.timedPass(&ps, func() ([]float64, string, error) {
			jobMS, dig, c, _, err := r.seqPass(cells)
			conflicts += c
			return jobMS, dig, err
		})
		if err != nil {
			return err
		}
	}
	r.sameDigests("sim_digest", ps.digests)
	// One thread cannot conflict with itself: a conflict abort here means
	// the workload is not the scheduling bypass it claims to be.
	r.check("seq_no_conflict_aborts", conflicts == 0, "%d conflict aborts on htm cells", conflicts)
	return r.finishEndToEnd(&ps, float64(len(cells)), "cells")
}

func traceSeq(r *run, cells []harness.RunConfig) error {
	var conflicts uint64
	var stats []htm.Stats
	plain, plainDigest, err := r.referencePass(func() (jobMS []float64, dig string, err error) {
		jobMS, dig, conflicts, stats, err = r.seqPass(cells)
		return jobMS, dig, err
	})
	if err != nil {
		return err
	}
	r.check("seq_no_conflict_aborts", conflicts == 0, "%d conflict aborts on htm cells", conflicts)

	r.calibrate()
	prePass()
	var agg cellAgg
	lines := make([]string, 0, len(cells))
	equal := true
	start := time.Now()
	for i, rc := range cells {
		st, err := stagedCell(r.tr, rc)
		r.op(cellErr(st, err))
		if err != nil {
			return err
		}
		agg.add(rc, st)
		lines = append(lines, digestLine(rc, &st.res.Stats))
		equal = equal && reflect.DeepEqual(st.res.Stats, stats[i])
	}
	r.set("host.tracing_overhead_ratio", time.Since(start).Seconds()/plain, 1)
	r.check("sim_digest", digest(lines) == plainDigest, "sha256 %s, staged pass identical", plainDigest)
	r.check("staged_equals_run", equal, "htm.Stats of %d staged cells against harness.Run", len(cells))
	agg.report(r)
	r.checkCoverage()
	return r.probes()
}

// ---- explore-pct -----------------------------------------------------

const (
	exploreNominalPassS = 3.3
	exploreMaxPasses    = 5
	exploreThreads      = 4
	exploreOps          = 160
	exploreSpec         = "pct:3"
)

var exploreBenches = []string{"list-hi", "kmeans", "memcached"}

// exploreSeeds splits each benchmark's schedules over this many workload
// seeds (seed, seed+1, ...). One seed fixes one program — one list, one
// key mix — and how long its schedules take swings by 30% from seed to
// seed; four programs per benchmark halve that without adding a schedule.
const exploreSeeds = 4

func (r *run) exploreConfig(bench string, k int) harness.ExploreConfig {
	return harness.ExploreConfig{Benchmark: bench, Backend: "staggered", Threads: exploreThreads,
		Seed: r.exploreSeed(k), TotalOps: exploreOps, Spec: exploreSpec, Runs: r.sz.exploreRuns / exploreSeeds}
}

// exploreSeed is the k-th workload seed, never 0 (harness reads 0 as 42,
// which would make two of the four programs the same one at -seed 39..42).
func (r *run) exploreSeed(k int) int64 {
	if s := r.seed + int64(k); s != 0 {
		return s
	}
	return exploreSeeds
}

// explorePass runs one campaign per workload seed and benchmark. One
// seed's three campaigns are one job, for seq-t1's reason: jobs are alike,
// single schedules (three benchmarks, four programs each) are not.
func (r *run) explorePass() (jobMS []float64, dig string, commits []int, err error) {
	var lines []string
	for k := 0; k < exploreSeeds; k++ {
		jobStart := time.Now()
		for _, b := range exploreBenches {
			ec := r.exploreConfig(b, k)
			rep, xerr := harness.Explore(ec)
			if xerr != nil {
				r.op(xerr)
				return nil, "", nil, xerr
			}
			for i := 0; i < rep.Runs-len(rep.Failures); i++ {
				r.op(nil)
			}
			for _, f := range rep.Failures {
				r.op(fmt.Errorf("explore %s seed %d sched seed %d: %w", b, ec.Seed, f.SchedSeed, f.Err))
			}
			if rep.Runs != ec.Runs {
				r.op(fmt.Errorf("explore %s seed %d: %d schedules recorded, want %d", b, ec.Seed, rep.Runs, ec.Runs))
			}
			commits = append(commits, rep.Commits)
			lines = append(lines, fmt.Sprintf("%s/staggered/t%d/s%d/ops%d/%s runs=%d commits=%d failures=%d",
				b, exploreThreads, ec.Seed, exploreOps, exploreSpec, rep.Runs, rep.Commits, len(rep.Failures)))
		}
		jobMS = append(jobMS, time.Since(jobStart).Seconds()*1e3)
	}
	// harness.Explore reports only counts, so the digest covers each
	// campaign's schedules, oracle-validated commits and failures: exact,
	// and it moves if any schedule's outcome does.
	return jobMS, digest(lines), commits, nil
}

func runExplore(r *run) error {
	setupStart := time.Now()
	prePass()
	if _, _, _, err := r.explorePass(); err != nil { // warm-up
		return err
	}
	ps := passStats{setupS: []float64{time.Since(setupStart).Seconds()}}
	if r.trace {
		return traceExplore(r)
	}
	for p, n := 0, r.passCount(exploreNominalPassS, exploreMaxPasses); p < n; p++ {
		err := r.timedPass(&ps, func() ([]float64, string, error) {
			jobMS, dig, _, err := r.explorePass()
			return jobMS, dig, err
		})
		if err != nil {
			return err
		}
	}
	r.sameDigests("sim_digest", ps.digests)
	return r.finishEndToEnd(&ps, float64(len(exploreBenches)*r.sz.exploreRuns), "schedules")
}

// exploreCells are the cells harness.Explore expands one campaign into.
func exploreCells(ec harness.ExploreConfig) []harness.RunConfig {
	cells := make([]harness.RunConfig, ec.Runs)
	for i := range cells {
		cells[i] = harness.RunConfig{Benchmark: ec.Benchmark, Backend: ec.Backend, Threads: ec.Threads,
			Seed: ec.Seed, TotalOps: ec.TotalOps, Sched: ec.Spec, SchedSeed: ec.Seed + int64(i)*1_000_003 + 1,
			Record: true, Oracle: true, WatchdogTrace: 256}
	}
	return cells
}

func traceExplore(r *run) error {
	var plainCommits []int
	plain, plainDigest, err := r.referencePass(func() (jobMS []float64, dig string, err error) {
		jobMS, dig, plainCommits, err = r.explorePass()
		return jobMS, dig, err
	})
	if err != nil {
		return err
	}

	r.calibrate()
	prePass()
	var agg cellAgg
	var stagedCommits []int
	var picks, oracleCommits int
	start := time.Now()
	for k := 0; k < exploreSeeds; k++ {
		for _, b := range exploreBenches {
			commits := 0
			for _, rc := range exploreCells(r.exploreConfig(b, k)) {
				st, err := stagedCell(r.tr, rc)
				r.op(cellErr(st, err))
				if err != nil {
					return err
				}
				agg.add(rc, st)
				commits += st.res.OracleCommits
				picks += len(st.res.SchedPicks)
			}
			stagedCommits = append(stagedCommits, commits)
			oracleCommits += commits
		}
	}
	r.set("host.tracing_overhead_ratio", time.Since(start).Seconds()/plain, 1)
	r.check("sim_digest", true, "sha256 %s", plainDigest)
	r.check("staged_equals_run", reflect.DeepEqual(stagedCommits, plainCommits),
		"oracle-validated commits per campaign: staged %v, harness.Explore %v", stagedCommits, plainCommits)
	r.set("oracle.commits", float64(oracleCommits), agg.cells)
	r.set("sched.picks", float64(picks), agg.cells)
	agg.report(r)
	r.checkCoverage()

	// Differential pairs: the same cells with the oracle off, and with the
	// scheduler hook and pick recording off.
	var full, noOracle, noSched float64
	for _, b := range exploreBenches {
		cells := exploreCells(r.exploreConfig(b, 0))
		if len(cells) > 20 {
			cells = cells[:20]
		}
		for _, rc := range cells {
			off := rc
			off.Oracle = false
			hookless := rc
			hookless.Sched, hookless.SchedSeed, hookless.Record = "", 0, false
			for _, v := range []struct {
				rc  harness.RunConfig
				sum *float64
			}{{rc, &full}, {off, &noOracle}, {hookless, &noSched}} {
				start := time.Now()
				res, err := harness.Run(v.rc)
				*v.sum += time.Since(start).Seconds()
				r.op(cellErr(staged{res: res}, err))
				if err != nil {
					return err
				}
			}
		}
	}
	r.set("oracle.overhead_ratio", full/noOracle, 1)
	r.set("sched.overhead_ratio", full/noSched, 1)
	return r.probes()
}
