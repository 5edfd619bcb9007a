package harness

import (
	"context"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/sched"
	"repro/internal/stagger"
)

// ExploreConfig describes a schedule-exploration campaign: many runs of
// one experiment cell under an adversarial scheduler, each with a fresh
// scheduler seed, each recorded and checked by the serializability oracle.
type ExploreConfig struct {
	// Benchmark / Mode / Backend / Capacity / Threads / Seed / TotalOps
	// select the cell, as in RunConfig. Seed fixes the workload; only the
	// schedule varies.
	Benchmark string
	Mode      stagger.Mode
	Backend   string
	Capacity  int
	Threads   int
	Seed      int64
	TotalOps  int
	// Stagger optionally overrides the runtime configuration (nil = the
	// paper's defaults for Mode), e.g. a tiny retry budget to provoke
	// irrevocable fallbacks.
	Stagger *stagger.Config
	// Chaos composes fault injection with schedule exploration: every
	// explored schedule also runs under the given deterministic fault
	// config, so fault x schedule sweeps are one campaign.
	Chaos *chaos.Config

	// Spec is the scheduler specification ("" = DefaultExploreSched);
	// replay specs make no sense here and are rejected.
	Spec string
	// Runs is the number of schedules to explore (0 = DefaultExploreRuns).
	Runs int

	// Minimize shrinks each failing schedule to a short decision prefix by
	// delta debugging (re-running the cell per probe, at most
	// minimizeBudget times per failure).
	Minimize bool

	// UnsafeEarlyRelease plumbs the test-only broken irrevocable fallback
	// through to the runtime, so tests can prove campaigns catch it.
	UnsafeEarlyRelease bool

	// Ctx, if non-nil, bounds the campaign: cancellation abandons in-flight
	// runs at their next globally ordered events and aborts the campaign
	// with an error wrapping ctx's error (the service layer's job deadlines
	// and drain ride on this). Nil runs to completion, exactly as before.
	Ctx context.Context
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

// Trace packages the failure as a writable trace for `-sched=replay:`.
func (f *ExploreFailure) Trace(ec ExploreConfig) *sched.Trace {
	rc := ec.RunConfig()
	rc.SchedSeed = f.SchedSeed
	picks := f.Picks
	if f.Minimized != nil {
		picks = f.Minimized
	}
	return SchedTrace(rc, picks)
}

// SchedTrace packages a decision sequence recorded under rc with the cell
// identity a replay needs: workload, system, threads, seeds and window.
func SchedTrace(rc RunConfig, picks []uint32) *sched.Trace {
	spec, _ := sched.Parse(rc.Sched)
	return &sched.Trace{
		Version:  sched.TraceVersion,
		Spec:     rc.Sched,
		Seed:     schedSeed(rc),
		Bench:    rc.Benchmark,
		Mode:     rc.Mode.String(),
		Backend:  rc.Backend,
		Capacity: rc.Capacity,
		Threads:  rc.Threads,
		WlSeed:   rc.Seed,
		Ops:      rc.TotalOps,
		Window:   spec.Window,
		Picks:    picks,
	}
}

// ExploreReport aggregates one campaign.
type ExploreReport struct {
	Config   ExploreConfig
	Runs     int
	Commits  int // oracle-validated commits across all runs
	Failures []ExploreFailure
}

// What a campaign that does not say explores.
const (
	DefaultExploreSched = "pct:3"
	DefaultExploreRuns  = 100
)

func exploreSpec(ec ExploreConfig) string {
	if ec.Spec == "" {
		return DefaultExploreSched
	}
	return ec.Spec
}

// ExploreOf lifts a cell into a campaign over it, the inverse of
// ExploreConfig.RunConfig: rc's cell fields and rc.Sched as the scheduler
// specification; Runs, Minimize and Ctx are the caller's to set.
func ExploreOf(rc RunConfig) ExploreConfig {
	return ExploreConfig{
		Benchmark:          rc.Benchmark,
		Mode:               rc.Mode,
		Backend:            rc.Backend,
		Capacity:           rc.Capacity,
		Threads:            rc.Threads,
		Seed:               rc.Seed,
		TotalOps:           rc.TotalOps,
		Stagger:            rc.Stagger,
		Chaos:              rc.Chaos,
		Spec:               rc.Sched,
		UnsafeEarlyRelease: rc.UnsafeEarlyRelease,
	}
}

// RunConfig is the cell every schedule of the campaign runs, oracle on.
// Explore adds a scheduler seed and pick recording per run; replaying a
// failure adds its picks.
func (ec ExploreConfig) RunConfig() RunConfig {
	return RunConfig{
		Benchmark:          ec.Benchmark,
		Mode:               ec.Mode,
		Backend:            ec.Backend,
		Capacity:           ec.Capacity,
		Threads:            ec.Threads,
		Seed:               ec.Seed,
		TotalOps:           ec.TotalOps,
		Stagger:            ec.Stagger,
		Chaos:              ec.Chaos,
		Sched:              exploreSpec(ec),
		Oracle:             true,
		UnsafeEarlyRelease: ec.UnsafeEarlyRelease,
		// Exploration keeps a deeper watchdog tail than the htm default:
		// adversarial schedules are exactly the runs whose ends are worth
		// reading.
		WatchdogTrace: 256,
	}
}

// Explore runs a schedule-exploration campaign. Infrastructure errors
// (unknown benchmark, watchdog timeout) abort the campaign; serializability
// violations and workload verification failures are collected as findings.
func Explore(ec ExploreConfig) (*ExploreReport, error) { return explore(ec, nil) }

// explore is Explore with a tap for tests: observe, when non-nil, sees
// every schedule's whole Result in run order, before it is folded into
// the report's counts.
func explore(ec ExploreConfig, observe func(i int, res *Result)) (*ExploreReport, error) {
	spec, err := sched.Parse(exploreSpec(ec))
	if err != nil {
		return nil, err
	}
	if spec.Kind == "replay" {
		return nil, fmt.Errorf("harness: explore needs a generative scheduler, not %q", ec.Spec)
	}
	if ec.Runs <= 0 {
		ec.Runs = DefaultExploreRuns
	}
	if ec.Seed == 0 {
		ec.Seed = DefaultSeed
	}

	// Every explored schedule is an independent cell (distinct scheduler
	// seed, same workload), so the campaign fans out across the package
	// worker default. Results fold into the report strictly in run order —
	// counts, failure list and minimization are indistinguishable from a
	// sequential campaign.
	cfgs := make([]RunConfig, ec.Runs)
	for i := range cfgs {
		// Distinct, nonzero scheduler seeds; the workload seed stays fixed
		// so every run explores the same program.
		cfgs[i] = ec.RunConfig()
		cfgs[i].SchedSeed = ec.Seed + int64(i)*1_000_003 + 1
		cfgs[i].Record = true
	}
	ctx := ec.Ctx
	if ctx == nil {
		ctx = context.Background()
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
	rep := &ExploreReport{Config: ec}
	err = sweepWith(ctx, cfgs, workers, run, func(i int, o RunOutcome) error {
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
			if ec.Minimize {
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
