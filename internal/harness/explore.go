package harness

import (
	"context"
	"fmt"

	"repro/internal/sched"
)

// ExploreConfig is the campaign the perf ledger (bench/) builds: a cell
// spelled field by field, explored by Explore. Everything else explores
// a whole RunConfig through ExploreCell.
type ExploreConfig struct {
	// Benchmark / Backend / Threads / Seed / TotalOps select the cell, as
	// in RunConfig. Seed fixes the workload; only the schedule varies.
	Benchmark string
	Backend   string
	Threads   int
	Seed      int64
	TotalOps  int

	// Spec is the scheduler specification ("" = DefaultExploreSched).
	Spec string
	// Runs is the number of schedules to explore (0 = DefaultExploreRuns).
	Runs int
}

// ExploreFailure is one failing schedule, with enough to reproduce it.
type ExploreFailure struct {
	// SchedSeed reproduces the schedule generatively (same Spec + seed).
	SchedSeed int64
	// Err is the oracle violation or workload verification failure.
	Err error
	// Picks is the recorded decision sequence (replays the failure).
	Picks []uint32
	// Minimized is the shortest failing prefix found (nil if minimization
	// was off or the failure stopped reproducing under replay).
	Minimized []uint32
	// Probes is how many replay runs minimization spent.
	Probes int
}

// Trace packages the failure as a writable trace for `-sched
// replay:<file>`: the campaign's cell (ExploreReport.Config), the
// minimized picks when there are any, or an error when that cell has no
// encoding (see SchedTrace).
func (f *ExploreFailure) Trace(rc RunConfig) (*sched.Trace, error) {
	rc.SchedSeed = f.SchedSeed
	picks := f.Picks
	if f.Minimized != nil {
		picks = f.Minimized
	}
	return SchedTrace(rc, picks)
}

// ExploreReport aggregates one campaign.
type ExploreReport struct {
	// Config is the cell every schedule ran: ExploreCell's rc with the
	// campaign's defaults applied and the oracle on. A schedule is Config
	// with its own SchedSeed.
	Config   RunConfig
	Runs     int
	Commits  int // oracle-validated commits across all runs
	Failures []ExploreFailure
}

// What a campaign that does not say explores.
const (
	DefaultExploreSched = "pct:3"
	DefaultExploreRuns  = 100
)

// Explore is ExploreCell over ec's cell, run to completion without
// minimization.
func Explore(ec ExploreConfig) (*ExploreReport, error) {
	return ExploreCell(context.Background(), ec.cell(), ec.Runs, false)
}

func (ec ExploreConfig) cell() RunConfig {
	return RunConfig{Benchmark: ec.Benchmark, Backend: ec.Backend, Threads: ec.Threads,
		Seed: ec.Seed, TotalOps: ec.TotalOps, Sched: ec.Spec}
}

// ExploreCell runs a schedule-exploration campaign over exactly rc: runs
// schedules (0 = DefaultExploreRuns), each rc with its own scheduler
// seed, its picks recorded and the serializability oracle on. rc.Sched
// defaults to DefaultExploreSched and rc.WatchdogTrace to 256: a deeper
// watchdog tail than the htm default, since adversarial schedules are
// exactly the runs whose ends are worth reading. Minimize shrinks each
// failing schedule to a short decision prefix by delta debugging
// (re-running the cell per probe, at most minimizeBudget times per
// failure).
//
// Infrastructure errors (unknown benchmark, watchdog timeout) abort the
// campaign; serializability violations and workload verification
// failures are collected as findings. Cancelling ctx abandons in-flight
// runs at their next globally ordered events and aborts the campaign
// with an error wrapping ctx's error.
func ExploreCell(ctx context.Context, rc RunConfig, runs int, minimize bool) (*ExploreReport, error) {
	return explore(ctx, rc, runs, minimize, nil)
}

// explore is ExploreCell with a tap for tests: observe, when non-nil,
// sees every schedule's whole Result in run order, before it is folded
// into the report's counts.
func explore(ctx context.Context, rc RunConfig, runs int, minimize bool, observe func(i int, res *Result)) (*ExploreReport, error) {
	if runs <= 0 {
		runs = DefaultExploreRuns
	}
	if rc.Seed == 0 {
		rc.Seed = DefaultSeed
	}
	if rc.Sched == "" {
		rc.Sched = DefaultExploreSched
	}
	if rc.WatchdogTrace == 0 {
		rc.WatchdogTrace = 256
	}
	// The schedules differ by seed alone: a replayed sequence would pin
	// them all to one.
	rc.Oracle, rc.ReplayPicks = true, nil

	// Every explored schedule is an independent cell (distinct scheduler
	// seed, same workload), so the campaign fans out across the package
	// worker default. Results fold into the report strictly in run order —
	// counts, failure list and minimization are indistinguishable from a
	// sequential campaign.
	cfgs := make([]RunConfig, runs)
	for i := range cfgs {
		// Distinct, nonzero scheduler seeds; the workload seed stays fixed
		// so every run explores the same program.
		cfgs[i] = rc
		cfgs[i].SchedSeed = rc.Seed + int64(i)*1_000_003 + 1
		cfgs[i].Record = true
	}
	// The cells differ only in their scheduler seed, so each worker runs
	// its share on one prepared cell; minimization, on the delivering
	// goroutine, has its own.
	workers := Workers()
	cells := make([]prepared, workers)
	var probes prepared
	run := func(ctx context.Context, worker int, rc RunConfig) RunOutcome {
		return runOne(ctx, rc, &cells[worker])
	}
	rep := &ExploreReport{Config: rc}
	err := sweepWith(ctx, cfgs, workers, run, func(i int, o RunOutcome) error {
		ss := cfgs[i].SchedSeed
		if o.Err != nil {
			return fmt.Errorf("harness: explore run %d (sched seed %d): %w", i, ss, o.Err)
		}
		res := o.Res
		if observe != nil {
			observe(i, res)
		}
		rep.Runs++
		rep.Commits += res.OracleCommits
		ferr := res.OracleErr
		if ferr == nil {
			ferr = res.VerifyErr
		}
		if ferr != nil {
			f := ExploreFailure{SchedSeed: ss, Err: ferr, Picks: res.SchedPicks}
			if minimize {
				// Minimization probes run here, on the delivering goroutine,
				// so they serialize in run order like the sequential loop.
				f.Minimized, f.Probes = minimizeFailure(&probes, cfgs[i], f.Picks)
			}
			rep.Failures = append(rep.Failures, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// minimizeBudget caps the replay probes minimization spends per failure.
const minimizeBudget = 512

// minimizeFailure delta-debugs a failing decision sequence: a candidate
// subsequence "fails" if replaying it (falling back to the deterministic
// rule once exhausted) still produces an oracle or verification failure.
// The probes, up to minimizeBudget replays of one cell, run on pc.
func minimizeFailure(pc *prepared, rc RunConfig, picks []uint32) ([]uint32, int) {
	probe := rc
	probe.Record = false
	probes := 0
	fail := func(p []uint32) bool {
		probes++
		if p == nil {
			p = []uint32{}
		}
		probe.ReplayPicks = p
		res, err := pc.run(context.Background(), probe)
		if err != nil {
			return false // infra error: treat the candidate as passing
		}
		return res.OracleErr != nil || res.VerifyErr != nil
	}
	// The full sequence must reproduce under replay at all, or there is
	// nothing sound to minimize.
	if !fail(picks) {
		return nil, probes
	}
	return sched.Minimize(picks, fail, minimizeBudget), probes
}
