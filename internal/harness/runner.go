// Package harness runs the paper's experiments: one workload under one
// system configuration per Run call, and table/figure generators that
// sweep benchmarks and systems to regenerate every result in Section 6
// of the paper.
//
// Every cell takes one path: normalize gives a RunConfig its canonical
// spelling and the named backend's constructor builds the runtime. A
// sweep has one shape, Sweep: an ordered parallel map over RunCtx that
// hands each cell's outcome (a result, an error, or a contained panic)
// to its caller in input order as soon as it is ready, and remembers
// nothing. Explore, RunChaosSweep and the daemon fold on it; RunAll is
// its collect-into-a-slice. Memoization lives with the only callers
// whose cells repeat, the table and figure generators: each lists its
// cells once and gets them back, in order, from results — the memo's
// only reader and writer, which simulates the distinct misses in
// parallel and turns a failed Verify into an error. RunCached and
// Speedup are its one- and two-cell cases.
package harness

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/anchor"
	"repro/internal/backend"
	_ "repro/internal/backend/occ" // register the software OCC backend
	"repro/internal/chaos"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// RunConfig selects a single experiment cell.
type RunConfig struct {
	// Benchmark is the workload name (see workloads.Names).
	Benchmark string
	// Mode is the system under test (HTM / AddrOnly / Staggered+SW /
	// Staggered).
	Mode stagger.Mode
	// Backend selects the concurrency-control backend by registry name
	// ("htm", "staggered", "limited", "occ"; see backend.Names). Empty
	// means "htm" under ModeHTM and "staggered" under any other Mode. A
	// named backend resolves Mode (e.g. "htm" forces the uninstrumented
	// baseline) before the machine is configured.
	Backend string
	// Capacity is the speculative line-capacity knob for the "limited"
	// backend (0 = that backend's default); other backends ignore it.
	Capacity int
	// Threads is the worker count (1..cores).
	Threads int
	// Seed drives all workload randomness.
	Seed int64
	// TotalOps overrides the workload's default operation count (0 =
	// default).
	TotalOps int
	// Naive instruments every load/store instead of anchors only
	// (Section 6.1's overhead comparison).
	Naive bool
	// Lazy switches the machine to lazy (commit-time, committer-wins)
	// conflict detection — the lazy-TM extension the paper's conclusion
	// proposes.
	Lazy bool
	// TraceN records the first N transaction events (begin/commit/abort)
	// for diagnostics; 0 disables tracing, negative records the whole run.
	TraceN int
	// ExtTrace additionally records extended observability events
	// (advisory-lock acquire/release, irrevocable section boundaries) for
	// timeline export (internal/obs). Requires TraceN != 0.
	ExtTrace bool
	// Machine optionally overrides the simulated machine configuration;
	// nil uses the paper's Table 2 machine.
	Machine *htm.Config
	// Stagger optionally overrides the runtime configuration; nil uses
	// the paper's parameters for the selected mode.
	Stagger *stagger.Config
	// Chaos enables deterministic fault injection (nil or all-zero rates:
	// fault-free, bit-identical to the baseline simulator).
	Chaos *chaos.Config
	// Watchdog bounds each core's virtual clock; a run exceeding it fails
	// loudly with the last trace events instead of hanging (0 = no
	// bound). Overrides Machine.WatchdogCycles when nonzero.
	Watchdog uint64
	// WatchdogTrace sizes the watchdog's last-events ring (0 = the htm
	// default). Exploration campaigns raise it so a timed-out adversarial
	// schedule leaves a useful tail.
	WatchdogTrace int

	// Sched selects an adversarial scheduler replacing the engine's
	// deterministic minimum-time tie-break ("" = baseline; see sched.Parse
	// for the grammar: "random", "pct:<d>", "...@<window>").
	Sched string
	// SchedSeed seeds the random and PCT schedulers (0 = use Seed). Each
	// exploration run varies SchedSeed while Seed keeps the workload fixed.
	SchedSeed int64
	// Record captures every scheduler decision; the sequence is returned in
	// Result.SchedPicks and replays the run bit-identically.
	Record bool
	// ReplayPicks, when non-nil (even empty), replays an in-memory decision
	// sequence, overriding Sched's strategy but keeping its window. The
	// trace minimizer probes candidate prefixes this way.
	ReplayPicks []uint32

	// Oracle installs the serializability checker: committed read sets are
	// validated against a shadow memory in commit order, operation tags are
	// re-executed on the workload's sequential reference model, and final
	// memory must match the shadow. Results land in Result.OracleErr.
	Oracle bool
}

// Result is everything one run produces.
type Result struct {
	Config   RunConfig
	Stats    htm.Stats
	Metrics  stagger.Metrics
	NumABs   int
	TotalOps int

	// Static instrumentation statistics from the compiler pass.
	StaticAccesses, StaticAnchors int

	// PerAB carries per-atomic-block policy aggregates (diagnostics).
	PerAB map[int]*stagger.ABMetrics

	// LA and LP report conflict locality: whether a single conflicting
	// address (resp. anchor PC) dominates the run's conflicts (Table 1).
	LA, LP bool

	// ConfAddrs and ConfPCs are the full conflict-attribution histograms
	// behind LA/LP: conflict aborts per conflicting line address and per
	// true initial-access anchor site (internal/obs renders the top
	// entries; LA/LP are their majority predicates).
	ConfAddrs map[mem.Addr]int
	ConfPCs   map[uint32]int

	// ConfPairs is the fully attributed conflict-pair histogram: which
	// (atomic block, site) aborted which; pairs with an unattributed side
	// are excluded.
	ConfPairs map[stagger.ConflictPair]int

	// Trace holds recorded transaction events when TraceN > 0.
	Trace []htm.TraceEvent

	// VerifyErr is non-nil if the workload's invariants failed.
	VerifyErr error

	// Faults counts injected faults by class (all zero without chaos).
	Faults chaos.Counts

	// SchedPicks is the recorded scheduler decision sequence (Record).
	SchedPicks []uint32
	// OracleCommits is how many atomic sections the oracle validated.
	OracleCommits int
	// OracleErr is non-nil if the serializability oracle found a violation
	// (including a final reference-model mismatch).
	OracleErr error

	// Compiled is the compiler-pass output the run executed under, for
	// resolving site IDs after the run.
	Compiled *anchor.Compiled
}

// Makespan returns the simulated duration in cycles.
func (r *Result) Makespan() uint64 { return r.Stats.Makespan }

// AbortsPerCommit forwards the Table 4 metric.
func (r *Result) AbortsPerCommit() float64 { return r.Stats.AbortsPerCommit() }

// WastedOverUseful forwards the Table 1 metric.
func (r *Result) WastedOverUseful() float64 { return r.Stats.WastedOverUseful() }

// TMFraction returns the share of total cycles spent in transactional
// mode (%TM of Table 4).
func (r *Result) TMFraction() float64 {
	var total uint64
	for _, cs := range r.Stats.PerCore {
		total += cs.FinalClock
	}
	if total == 0 {
		return 0
	}
	return float64(r.Stats.TxCycles()) / float64(total)
}

// UopsPerTxn returns mean transactional µ-ops per committed transaction.
func (r *Result) UopsPerTxn() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Stats.TxUops) / float64(r.Stats.Commits)
}

// AnchorsPerTxn returns mean executed ALPs per committed transaction.
func (r *Result) AnchorsPerTxn() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Metrics.ALPVisits) / float64(r.Stats.Commits)
}

// DefaultSeed is the workload seed a zero Seed means.
const DefaultSeed = 42

// cell is a normalized RunConfig together with the backend and the
// scheduler spec normalizing it had to look up. It holds no workload:
// normalizing is what every memo lookup and every admitted service cell
// does, and only a run needs a built module.
type cell struct {
	rc    RunConfig
	bk    backend.Info
	sched sched.Spec // only the default window when rc.Sched is empty
}

// normalize resolves rc's defaults and alternative spellings to the one
// canonical description of the simulation they select: seed 0 is
// DefaultSeed, ops 0 is the workload's default, an empty Backend is
// "htm" under ModeHTM and "staggered" otherwise, Mode is what the
// backend actually runs, Capacity survives only on "limited", and a
// fault-injected cell with no watchdog runs under ChaosWatchdog. A
// scheduler spec that does not parse fails here, before anything
// simulates. The run path, the memo key and the service's store key all
// start here.
func normalize(rc RunConfig) (cell, error) {
	defaultOps, err := workloads.DefaultOps(rc.Benchmark)
	if err != nil {
		return cell{}, err
	}
	if rc.Threads <= 0 {
		return cell{}, fmt.Errorf("harness: Threads must be positive")
	}
	if rc.TotalOps == 0 {
		rc.TotalOps = defaultOps
	}
	if rc.Seed == 0 {
		rc.Seed = DefaultSeed
	}
	if rc.Backend == "" {
		rc.Backend = "staggered"
		if rc.Mode == stagger.ModeHTM {
			rc.Backend = "htm"
		}
	}
	bk, err := backend.Get(rc.Backend)
	if err != nil {
		return cell{}, err
	}
	// The effective mode decides the machine's conflicting-PC hardware.
	if bk.Software {
		rc.Mode = stagger.ModeHTM
	} else {
		rc.Mode = stagger.ResolveMode(rc.Backend, rc.Mode)
	}
	if rc.Backend != "limited" {
		rc.Capacity = 0
	}
	if rc.Watchdog == 0 && rc.Chaos != nil && rc.Chaos.Enabled() {
		rc.Watchdog = ChaosWatchdog
	}
	c := cell{rc: rc, bk: bk, sched: sched.Spec{Window: sched.DefaultWindow}}
	if rc.Sched != "" {
		if c.sched, err = sched.Parse(rc.Sched); err != nil {
			return cell{}, err
		}
	}
	return c, nil
}

// Run executes one experiment cell.
func Run(rc RunConfig) (*Result, error) { return RunCtx(context.Background(), rc) }

// RunCtx is Run under a context. Cancelling ctx abandons the simulation
// at the cores' next globally ordered events — within one event per
// core, not after draining the workload — and returns an error wrapping
// ctx's error; no partial Result escapes a cancelled run. A background
// (never-cancelled) context leaves the machine's cancellation hook
// unarmed, at no cost.
func RunCtx(ctx context.Context, rc RunConfig) (*Result, error) {
	return new(prepared).run(ctx, rc)
}

// prepared is what the runs of one cell can share when only the schedule
// varies between them: the built workload, its compiled anchors, one
// machine, the recorder's pick buffer and the oracle's shadow memory.
// The zero value is a cell nothing has been built for yet, and a single
// run is a run on one of those: cell.run builds whatever part is missing
// and otherwise resets the part it finds, so there is one run path. All
// runs on a prepared cell must be of configurations that differ only in
// SchedSeed, Record and ReplayPicks — what Explore and minimizeFailure
// vary — and each sweep worker has its own.
type prepared struct {
	w      *workloads.Workload
	comp   *anchor.Compiled
	mach   *htm.Machine
	rec    *sched.Recorder
	shadow *mem.Memory
}

// run is RunCtx on p. A run that ends in an error or a panic (watchdog
// trip, cancellation, workload bug) drops everything p holds: Reset is
// total, but the next schedule should not have to depend on that after
// an abnormal exit.
func (p *prepared) run(ctx context.Context, rc RunConfig) (res *Result, err error) {
	clean := false
	defer func() {
		if !clean {
			*p = prepared{}
		}
	}()
	c, err := normalize(rc)
	if err != nil {
		return nil, err
	}
	res, err = c.run(ctx, p)
	clean = err == nil
	return res, err
}

func (c cell) run(ctx context.Context, p *prepared) (*Result, error) {
	rc, bk := c.rc, c.bk
	if p.w == nil {
		w, err := workloads.Get(rc.Benchmark)
		if err != nil {
			return nil, err
		}
		p.w = w
	}
	w := p.w

	mcfg := htm.DefaultConfig()
	if rc.Machine != nil {
		mcfg = *rc.Machine
	}
	if rc.Threads > mcfg.Cores {
		return nil, fmt.Errorf("harness: %d threads exceed %d cores", rc.Threads, mcfg.Cores)
	}
	mcfg.HardwareCPC = rc.Mode == stagger.ModeStaggeredHW
	mcfg.Lazy = rc.Lazy
	mcfg.Seed = rc.Seed
	if rc.Watchdog != 0 {
		mcfg.WatchdogCycles = rc.Watchdog
	}
	if rc.WatchdogTrace != 0 {
		mcfg.WatchdogTrace = rc.WatchdogTrace
	}
	if bk.PrepareMachine != nil {
		bk.PrepareMachine(&mcfg, backend.Options{Capacity: rc.Capacity})
	}

	aopts := anchor.DefaultOptions()
	aopts.PCBits = mcfg.PCTagBits
	aopts.Naive = rc.Naive
	if p.comp == nil {
		p.comp = anchor.Compile(w.Mod, aopts)
	}
	comp := p.comp

	if p.mach == nil {
		p.mach = htm.New(mcfg)
	} else {
		p.mach.Reset()
	}
	mach := p.mach
	if rc.TraceN != 0 {
		limit := rc.TraceN
		if limit < 0 {
			limit = 0 // unlimited
		}
		if rc.ExtTrace {
			mach.EnableTraceExt(limit)
		} else {
			mach.EnableTrace(limit)
		}
	}

	var recorder *sched.Recorder
	scheduler, err := c.scheduler(mcfg.Cores)
	if err != nil {
		return nil, err
	}
	if scheduler != nil {
		if rc.Record {
			if p.rec == nil {
				p.rec = sched.NewRecorder(scheduler)
			} else {
				p.rec.Reset(scheduler)
			}
			recorder = p.rec
			scheduler = recorder
		}
		mach.SetScheduler(scheduler)
	}

	scfg := stagger.DefaultConfig(rc.Mode)
	if rc.Stagger != nil {
		scfg = *rc.Stagger
		scfg.Mode = rc.Mode
	}
	var inj *chaos.Injector
	if rc.Chaos != nil && rc.Chaos.Enabled() {
		inj = chaos.NewInjector(*rc.Chaos, mcfg.Cores)
		mach.SetFaultInjector(inj)
		scfg.LockFaults = inj
	}
	// The concrete stagger runtime, when the backend has one, is recovered
	// for the stagger-specific result fields below.
	brt, err := bk.New(mach, comp, backend.Options{
		Capacity:      rc.Capacity,
		StaggerConfig: scfg,
	})
	if err != nil {
		return nil, err
	}
	var rt *stagger.Runtime
	if u, ok := brt.(interface{ Unwrap() *stagger.Runtime }); ok {
		rt = u.Unwrap()
	}

	if done := ctx.Done(); done != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stop := mach.CancelOn(done)
		defer stop()
	}

	w.Setup(mach, rc.Seed)

	// The oracle snapshots memory after setup so the shadow starts from the
	// seeded data, and builds the reference model afterwards so it can
	// capture post-setup addresses.
	var chk *oracle.Checker
	var model oracle.RefModel
	if rc.Oracle {
		if w.RefModel != nil {
			model = w.RefModel(mach, rc.Seed)
		}
		if p.shadow == nil {
			p.shadow = mach.Mem.Snapshot()
		} else {
			mach.Mem.CopyInto(p.shadow)
		}
		chk = oracle.New(p.shadow, model)
		mach.SetObserver(chk)
	}

	bodies := make([]func(*htm.Core), rc.Threads)
	for tid := 0; tid < rc.Threads; tid++ {
		n := workloads.Split(rc.TotalOps, rc.Threads, tid)
		bodies[tid] = w.Body(brt, tid, rc.Threads, n, rc.Seed)
	}
	if err := mach.RunChecked(bodies); err != nil {
		var ce *htm.CancelError
		if errors.As(err, &ce) {
			// Surface the context's error so callers can errors.Is it
			// against context.Canceled / DeadlineExceeded.
			cause := ctx.Err()
			if cause == nil {
				cause = err
			}
			return nil, fmt.Errorf("harness: %s (%s, %d threads): abandoned at cycle %d: %w",
				rc.Benchmark, rc.Mode, rc.Threads, ce.Cycles, cause)
		}
		return nil, fmt.Errorf("harness: %s (%s, %d threads): %w",
			rc.Benchmark, rc.Mode, rc.Threads, err)
	}

	res := &Result{
		Config:         rc,
		Stats:          mach.Stats(),
		NumABs:         len(w.Mod.Atomics),
		TotalOps:       rc.TotalOps,
		StaticAccesses: comp.StaticAccesses,
		StaticAnchors:  comp.StaticAnchors,
		VerifyErr:      w.Verify(mach, rc.Threads, rc.TotalOps),
		Compiled:       comp,
	}
	if rt != nil {
		// Stagger-specific attribution; software backends (no concrete
		// stagger runtime) report through htm.Stats alone.
		res.Metrics = rt.Metrics
		res.LA, res.LP = rt.Locality()
		res.ConfAddrs = rt.ConflictAddrs()
		res.ConfPCs = rt.ConflictPCs()
		res.ConfPairs = rt.ConflictPairs()
		res.PerAB = rt.PerAB()
	}
	res.Trace = mach.Trace()
	if inj != nil {
		res.Faults = inj.Counts()
	}
	if recorder != nil {
		// The recorder's buffer is the next schedule's too.
		res.SchedPicks = slices.Clone(recorder.Picks())
	}
	if chk != nil {
		chk.FinalCheck(mach.Mem)
		res.OracleCommits = chk.Commits()
		res.OracleErr = chk.Err()
		if res.OracleErr == nil {
			if f, ok := model.(oracle.Finisher); ok {
				if ferr := f.Finish(); ferr != nil {
					res.OracleErr = fmt.Errorf("oracle: final model check: %w", ferr)
				}
			}
		}
	}
	return res, nil
}

// scheduler resolves the cell's scheduling fields into an htm scheduler
// (nil = the engine's deterministic baseline). Replayed picks run under
// the window of the spec that recorded them.
func (c cell) scheduler(cores int) (htm.Scheduler, error) {
	if c.rc.ReplayPicks != nil {
		return sched.NewReplay(c.rc.ReplayPicks, c.sched.Window), nil
	}
	if c.rc.Sched == "" {
		return nil, nil
	}
	return c.sched.New(schedSeed(c.rc), cores)
}

// schedSeed is rc's scheduler seed: SchedSeed, or Seed when that is zero.
func schedSeed(rc RunConfig) int64 {
	if rc.SchedSeed == 0 {
		return rc.Seed
	}
	return rc.SchedSeed
}

// sequential is the speedup denominator of rc: the same workload on one
// thread of the unlimited plain-HTM machine, whatever rc's backend.
func sequential(rc RunConfig) RunConfig {
	rc.Backend = "htm"
	rc.Threads = 1
	return rc
}

// over is the speedup of b relative to a: a's makespan over b's.
func over(a, b *Result) float64 { return float64(a.Makespan()) / float64(b.Makespan()) }

// Speedup returns rc's speedup over its sequential run, and rc's result;
// both runs come from results.
func Speedup(rc RunConfig) (float64, *Result, error) {
	rs, err := results([]RunConfig{sequential(rc), rc})
	if err != nil {
		return 0, nil, err
	}
	seq, par := rs[0], rs[1]
	if par.Makespan() == 0 {
		return 0, par, fmt.Errorf("harness: zero makespan")
	}
	return over(seq, par), par, nil
}
