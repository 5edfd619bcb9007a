package harness

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/htm"
	"repro/internal/stagger"
)

// TestReplayFidelity: a recorded adversarial run must replay
// bit-identically — same aggregate and per-core statistics (including
// per-cause abort counts) and the same transaction event trace (commit
// order), for both scheduler strategies across several workloads, in HTM
// and staggered mode. Recording again, and recording while replaying,
// must yield the recording's pick sequence decision for decision: the
// engine consults the scheduler at identical decision points. Any drift
// there, the kind that silently breaks archived schedule files, fails here
// instead of in a campaign.
func TestReplayFidelity(t *testing.T) {
	benches := []string{"list-hi", "kmeans", "intruder", "memcached"}
	for _, spec := range []string{"random", "pct:3"} {
		for _, bench := range benches {
			t.Run(spec+"/"+bench, func(t *testing.T) {
				for _, mode := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
					t.Run(mode.String(), func(t *testing.T) {
						rc := RunConfig{
							Benchmark: bench,
							Mode:      mode,
							Threads:   4,
							Seed:      11,
							TotalOps:  240,
							TraceN:    -1,
							Sched:     spec,
							SchedSeed: 1234,
							Record:    true,
						}
						rec, err := Run(rc)
						if err != nil {
							t.Fatalf("record run: %v", err)
						}
						if len(rec.SchedPicks) == 0 {
							t.Fatalf("scheduler made no decisions; exploration is a no-op")
						}
						replay := rc
						replay.Record = false
						replay.ReplayPicks = rec.SchedPicks
						rerecord := replay
						rerecord.Record = true
						for _, run := range []struct {
							name string
							rc   RunConfig
						}{{"second recording", rc}, {"replay", replay}, {"recording of the replay", rerecord}} {
							res, err := Run(run.rc)
							if err != nil {
								t.Fatalf("%s: %v", run.name, err)
							}
							if !reflect.DeepEqual(res.Stats, rec.Stats) {
								t.Errorf("%s stats diverge:\nrecorded: %+v\n     got: %+v", run.name, rec.Stats, res.Stats)
							}
							if !reflect.DeepEqual(res.Trace, rec.Trace) {
								t.Errorf("%s event trace diverges (%d vs %d events)", run.name, len(rec.Trace), len(res.Trace))
							}
							if run.rc.Record && !slices.Equal(res.SchedPicks, rec.SchedPicks) {
								t.Errorf("%s picks diverge: %d picks, recording %d", run.name, len(res.SchedPicks), len(rec.SchedPicks))
							}
						}
					})
				}
			})
		}
	}
}

// TestReplayTraceFile: the trace file written for a run replays it: its
// header decodes, through the one strict decoder, to the cell the run
// was recorded under, and its picks replay that cell bit-identically —
// the path staggersim's -sched replay:<file> takes.
func TestReplayTraceFile(t *testing.T) {
	rc := RunConfig{
		Benchmark: "list-hi",
		Mode:      stagger.ModeStaggeredHW,
		Threads:   4,
		Seed:      11,
		TotalOps:  240,
		Lazy:      true,
		Sched:     "pct:3@2048",
		SchedSeed: 99,
		Record:    true,
	}
	rec, err := Run(rc)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	tr, err := SchedTrace(rec.Config, rec.SchedPicks)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fail.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, picks, err := DecodeTrace(data)
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	_, rp, err := c.Normalize()
	if err != nil {
		t.Fatalf("trace cell %+v: %v", c, err)
	}
	rp.ReplayPicks = picks
	rep, err := Run(rp)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if !rp.Lazy || rp.Sched != rc.Sched || rp.SchedSeed != rc.SchedSeed {
		t.Fatalf("trace cell lost the recorded run's settings: %+v", c)
	}
	if !reflect.DeepEqual(rec.Stats, rep.Stats) {
		t.Fatalf("trace-file replay diverges from recording")
	}
}

// TestExploreCleanCampaign: a seeded campaign over correct protocols must
// find zero serializability violations, in both baseline and staggered
// modes, while validating a healthy number of commits.
func TestExploreCleanCampaign(t *testing.T) {
	for _, mode := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
		for _, bench := range []string{"list-hi", "kmeans", "tsp"} {
			rep, err := Explore(ExploreConfig{
				Benchmark: bench,
				Mode:      mode,
				Threads:   4,
				Seed:      17,
				TotalOps:  160,
				Spec:      "pct:3",
				Runs:      4,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, mode, err)
			}
			if len(rep.Failures) != 0 {
				t.Fatalf("%s/%s: campaign flagged a correct protocol: %v",
					bench, mode, rep.Failures[0].Err)
			}
			if rep.Commits == 0 {
				t.Fatalf("%s/%s: campaign validated no commits", bench, mode)
			}
		}
	}
}

// TestExploreComposesWithChaos: fault x schedule sweeps are one campaign —
// adversarial schedules with fault injection must still find zero
// violations on a correct protocol.
func TestExploreComposesWithChaos(t *testing.T) {
	ccfg := chaos.Scaled(0.01, 42)
	rep, err := Explore(ExploreConfig{
		Benchmark: "list-hi",
		Mode:      stagger.ModeStaggeredHW,
		Threads:   4,
		Seed:      19,
		TotalOps:  160,
		Chaos:     &ccfg,
		Spec:      "pct:3",
		Runs:      4,
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("chaos x schedule campaign flagged a correct protocol: %v", rep.Failures[0].Err)
	}
	if rep.Commits == 0 {
		t.Fatal("campaign validated no commits")
	}
}

// TestExploreCatchesEarlyReleaseAndMinimizes: the acceptance scenario —
// with the test-only broken irrevocable fallback (global lock released
// before the body), an exploration campaign must catch the atomicity
// violation, and minimization must shrink the failing schedule to at most
// 25% of its original decision count. The campaign's schedules and its
// minimization probes share pick buffers and machines, so every failure
// is also replayed from what the report stored — Picks, then Minimized —
// once the campaign is over: each must still fail. Workers 1 and 2 (one
// and two prepared cells) must report the same failures.
func TestExploreCatchesEarlyReleaseAndMinimizes(t *testing.T) {
	// A tiny retry budget makes irrevocable fallbacks (the broken path)
	// frequent under contention. intruder's decoder transaction is the
	// right victim: it stores to the shared fragment map, computes for 450
	// cycles, then pushes to the result queue — so with the global lock
	// wrongly released, concurrent decoders commit half views of it.
	scfg := stagger.DefaultConfig(stagger.ModeHTM)
	scfg.MaxRetries = 1
	scfg.UnsafeEarlyGlobalRelease = true
	ec := ExploreConfig{
		Benchmark: "intruder",
		Mode:      stagger.ModeHTM,
		Threads:   4,
		Seed:      23,
		Stagger:   &scfg,
		Spec:      "pct:3",
		Runs:      12,
		Minimize:  true,
	}
	var reports []string
	for _, workers := range []int{1, 2} {
		var rep *ExploreReport
		withWorkers(t, workers, func() {
			var err error
			if rep, err = Explore(ec); err != nil {
				t.Fatalf("workers=%d: explore: %v", workers, err)
			}
		})
		if len(rep.Failures) < 2 {
			t.Fatalf("workers=%d: campaign caught %d failing schedules of the broken irrevocable fallback, want >= 2 (%d runs, %d commits)",
				workers, len(rep.Failures), rep.Runs, rep.Commits)
		}
		fails := func(f ExploreFailure, picks []uint32) bool {
			rc := ec.RunConfig()
			rc.SchedSeed = f.SchedSeed
			rc.ReplayPicks = picks
			res, err := Run(rc)
			if err != nil {
				t.Fatalf("workers=%d: replay of sched seed %d: %v", workers, f.SchedSeed, err)
			}
			return res.OracleErr != nil || res.VerifyErr != nil
		}
		minimizedOne := false
		for _, f := range rep.Failures {
			// Picks must be the schedule its seed generates, decision for
			// decision: the bytes are the failure's own, not a view of a
			// buffer later schedules recorded over.
			rc := ec.RunConfig()
			rc.SchedSeed, rc.Record = f.SchedSeed, true
			if res, err := Run(rc); err != nil {
				t.Fatalf("workers=%d: re-recording sched seed %d: %v", workers, f.SchedSeed, err)
			} else if !slices.Equal(f.Picks, res.SchedPicks) {
				t.Errorf("workers=%d: sched seed %d: the stored Picks (%d) are not the picks that seed records (%d)",
					workers, f.SchedSeed, len(f.Picks), len(res.SchedPicks))
			}
			if f.Minimized == nil {
				continue
			}
			minimizedOne = true
			if lim := len(f.Picks) / 4; len(f.Minimized) > lim {
				t.Errorf("workers=%d: minimized schedule has %d decisions, want <= %d (of %d)",
					workers, len(f.Minimized), lim, len(f.Picks))
			}
			// A failure minimization reproduced must reproduce again, from
			// both stored sequences, after later schedules and probes have
			// been through the buffers it was recorded in.
			if !fails(f, f.Picks) {
				t.Errorf("workers=%d: sched seed %d: the stored Picks no longer fail", workers, f.SchedSeed)
			}
			if !fails(f, f.Minimized) {
				t.Errorf("workers=%d: sched seed %d: the stored Minimized picks no longer fail", workers, f.SchedSeed)
			}
		}
		if !minimizedOne {
			t.Fatalf("workers=%d: no failure reproduced under replay; minimization never ran", workers)
		}
		reports = append(reports, fmt.Sprintf("runs=%d commits=%d failures=%d sha256=%x", rep.Runs, rep.Commits,
			len(rep.Failures), sha256.Sum256([]byte(fmt.Sprintf("%+v", rep.Failures)))))
	}
	if reports[0] != reports[1] {
		t.Fatalf("explore report diverges across worker counts\nworkers=1: %s\nworkers=2: %s", reports[0], reports[1])
	}
}

// TestCacheKeyDistinguishesSchedulers: memoization must never serve a
// baseline result for a scheduled run, a differently-seeded schedule, or
// an oracle-checked run (and vice versa).
func TestCacheKeyDistinguishesSchedulers(t *testing.T) {
	ClearCache()
	defer ClearCache()
	base := RunConfig{Benchmark: "list-lo", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 120}

	r1, err := RunCached(base)
	if err != nil {
		t.Fatal(err)
	}
	sc := base
	sc.Sched = "random"
	sc.SchedSeed = 7
	r2, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatalf("cache returned the baseline result for a scheduled run")
	}
	if r1.Stats.Makespan == r2.Stats.Makespan {
		t.Logf("note: scheduled and baseline runs happen to share a makespan")
	}
	sc2 := sc
	sc2.SchedSeed = 8
	r3, err := RunCached(sc2)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r2 {
		t.Fatalf("cache conflated two scheduler seeds")
	}
	oc := base
	oc.Oracle = true
	r4, err := RunCached(oc)
	if err != nil {
		t.Fatal(err)
	}
	if r4 == r1 {
		t.Fatalf("cache conflated oracle and plain runs")
	}
	if r4.OracleCommits == 0 {
		t.Fatalf("oracle run validated no commits")
	}
	// Identical scheduled configs must still hit the cache.
	r5, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r5 != r2 {
		t.Fatalf("identical scheduled run missed the cache")
	}
}

// TestOracleCleanAcrossWorkloadsAndModes: every workload's reference model
// validates a short oracle-checked run in baseline and staggered modes —
// the per-workload wiring (tags, models, final checks) is sound.
func TestOracleCleanAcrossWorkloadsAndModes(t *testing.T) {
	for _, mode := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
		for _, bench := range []string{
			"genome", "intruder", "kmeans", "labyrinth", "ssca2",
			"vacation", "list-lo", "list-hi", "tsp", "memcached",
		} {
			t.Run(bench+"/"+mode.String(), func(t *testing.T) {
				res, err := Run(RunConfig{
					Benchmark: bench,
					Mode:      mode,
					Threads:   4,
					Seed:      29,
					Sched:     "random",
					SchedSeed: 31,
					Oracle:    true,
				})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.VerifyErr != nil {
					t.Fatalf("verify: %v", res.VerifyErr)
				}
				if res.OracleErr != nil {
					t.Fatalf("oracle: %v", res.OracleErr)
				}
				if res.OracleCommits == 0 {
					t.Fatalf("oracle observed no commits")
				}
			})
		}
	}
}

// TestWatchdogTripPoisonsPreparedCell: a probe that ends in an error must
// leave nothing behind for the next one. One of minimizeFailure's probes
// trips a watchdog set between the makespans of two replays of one cell,
// inside a transaction; the prepared cell must then hold nothing — not
// the machine the trip abandoned — and the next probe on it must equal a
// fresh Run of the same configuration, trace byte for trace byte.
func TestWatchdogTripPoisonsPreparedCell(t *testing.T) {
	rc := RunConfig{
		Benchmark: "list-hi", Mode: stagger.ModeStaggeredHW, Threads: 4, Seed: 42, TotalOps: 160,
		Sched: "pct:3", SchedSeed: 7, Oracle: true, TraceN: -1, ExtTrace: true, WatchdogTrace: 256,
	}
	mustRun := func(rc RunConfig) *Result {
		t.Helper()
		res, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec := rc
	rec.Record = true
	// Two schedules of the cell: the recorded adversarial one and the
	// deterministic fallback an empty replay gives.
	long, short := rc, rc
	long.ReplayPicks, short.ReplayPicks = mustRun(rec).SchedPicks, []uint32{}
	ml, ms := mustRun(long).Makespan(), mustRun(short).Makespan()
	if ml < ms {
		long, short, ml, ms = short, long, ms, ml
	}
	if ml-ms < 2 {
		t.Fatalf("both schedules take %d cycles: no watchdog limit separates them", ml)
	}
	// A limit between the two makespans at which the long schedule's
	// first core to cross it is inside a transaction.
	inTx := func(err error) bool {
		var wd *htm.WatchdogError
		if !errors.As(err, &wd) {
			t.Fatalf("err = %v, want a watchdog trip", err)
		}
		last := htm.TraceCommit
		for _, e := range wd.Trace {
			if e.Core == wd.Core && e.Kind <= htm.TraceAbort {
				last = e.Kind
			}
		}
		return last == htm.TraceBegin
	}
	for k := uint64(1); k < 32 && long.Watchdog == 0; k++ {
		probe := long
		probe.Watchdog = ms + k*(ml-ms)/32
		if _, err := Run(probe); inTx(err) {
			long.Watchdog, short.Watchdog = probe.Watchdog, probe.Watchdog
		}
	}
	if long.Watchdog == 0 {
		t.Fatalf("no limit in (%d, %d) stops the long schedule inside a transaction: pick another cell", ms, ml)
	}
	want := mustRun(short)

	pc := new(prepared)
	if _, err := pc.run(context.Background(), short); err != nil {
		t.Fatal(err)
	}
	abandoned := pc.mach
	if abandoned == nil {
		t.Fatal("a clean run left no machine on the prepared cell")
	}

	// The real path: minimization's first probe replays the long schedule
	// and trips; with nothing reproduced there is nothing to minimize.
	if min, probes := minimizeFailure(pc, long, long.ReplayPicks); min != nil || probes != 1 {
		t.Fatalf("minimizeFailure = %v after %d probes, want nil after the 1 that trips", min, probes)
	}
	if *pc != (prepared{}) {
		t.Fatalf("the prepared cell still holds %+v after a watchdog trip", *pc)
	}

	got, err := pc.run(context.Background(), short)
	if err != nil {
		t.Fatal(err)
	}
	if pc.mach == nil || pc.mach == abandoned {
		t.Fatal("the probe after the trip ran on the abandoned machine")
	}
	if g, w := htm.FormatTrace(got.Trace), htm.FormatTrace(want.Trace); g != w || len(w) == 0 {
		t.Fatalf("the probe after the trip differs from a fresh run (%d vs %d trace bytes)", len(g), len(w))
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("the probe after the trip differs from a fresh run in its statistics")
	}
}

// TestExploreScheduleAllocations is the allocation gate on a campaign's
// steady state: once the first schedule has built the prepared cell,
// schedules 2..9 of the perf ledger's three explore-pct campaigns may
// average at most 700 mallocs and 160 KB each (about half of what a
// fresh cell per schedule costs: 1478 mallocs and 439 KB). What remains
// is per schedule by nature: the runtime and its per-thread state, the
// scheduler and the PRNGs, thread bodies and coroutines, the Result and
// its copy of the picks.
func TestExploreScheduleAllocations(t *testing.T) {
	const maxMallocs, maxBytes = 700, 160 << 10
	var mallocs, bytes uint64
	const first, last = 2, 9
	for _, bench := range []string{"list-hi", "kmeans", "memcached"} {
		ec := ExploreConfig{Benchmark: bench, Backend: "staggered", Threads: 4, Seed: 42, TotalOps: 160, Spec: "pct:3"}
		pc := new(prepared)
		var before, after runtime.MemStats
		for i := 1; i <= last; i++ {
			if i == first {
				runtime.ReadMemStats(&before)
			}
			rc := ec.RunConfig()
			rc.SchedSeed, rc.Record = ec.Seed+int64(i), true
			res, err := pc.run(context.Background(), rc)
			if err != nil || res.OracleErr != nil || res.VerifyErr != nil {
				t.Fatalf("%s schedule %d: %v / %v / %v", bench, i, err, res.OracleErr, res.VerifyErr)
			}
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	n := uint64(3 * (last - first + 1))
	t.Logf("per schedule: %d mallocs, %d KB", mallocs/n, bytes/n>>10)
	if mallocs/n > maxMallocs || bytes/n > maxBytes {
		t.Fatalf("schedules %d..%d average %d mallocs and %d KB each, want <= %d and <= %d KB",
			first, last, mallocs/n, bytes/n>>10, maxMallocs, maxBytes>>10)
	}
}
