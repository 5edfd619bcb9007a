package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sched"
	"repro/internal/stagger"
)

// TestReplayFidelity: a recorded adversarial run must replay
// bit-identically — same aggregate and per-core statistics (including
// per-cause abort counts) and the same transaction event trace (commit
// order), for both scheduler strategies across several workloads.
func TestReplayFidelity(t *testing.T) {
	benches := []string{"list-hi", "kmeans", "intruder", "memcached"}
	for _, spec := range []string{"random", "pct:3"} {
		for _, bench := range benches {
			t.Run(spec+"/"+bench, func(t *testing.T) {
				rc := RunConfig{
					Benchmark: bench,
					Mode:      stagger.ModeStaggeredHW,
					Threads:   4,
					Seed:      11,
					TotalOps:  240,
					TraceN:    2048,
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

				rp := rc
				rp.Record = false
				rp.ReplayPicks = rec.SchedPicks
				rep, err := Run(rp)
				if err != nil {
					t.Fatalf("replay run: %v", err)
				}
				if !reflect.DeepEqual(rec.Stats, rep.Stats) {
					t.Errorf("replay stats diverge:\nrecorded: %+v\nreplayed: %+v", rec.Stats, rep.Stats)
				}
				if !reflect.DeepEqual(rec.Trace, rep.Trace) {
					t.Errorf("replay event trace diverges (%d vs %d events)",
						len(rec.Trace), len(rep.Trace))
				}
			})
		}
	}
}

// TestReplayTraceFile: the trace file written for a run replays it via the
// replay:<file> scheduler spec, the CLI's reproduction path.
func TestReplayTraceFile(t *testing.T) {
	rc := RunConfig{
		Benchmark: "list-hi",
		Mode:      stagger.ModeStaggeredHW,
		Threads:   4,
		Seed:      11,
		TotalOps:  240,
		Sched:     "pct:3",
		SchedSeed: 99,
		Record:    true,
	}
	rec, err := Run(rc)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	tr := &sched.Trace{
		Version: sched.TraceVersion,
		Spec:    rc.Sched,
		Seed:    rc.SchedSeed,
		Bench:   rc.Benchmark,
		Mode:    rc.Mode.String(),
		Threads: rc.Threads,
		WlSeed:  rc.Seed,
		Window:  sched.DefaultWindow,
		Picks:   rec.SchedPicks,
	}
	path := filepath.Join(t.TempDir(), "fail.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("write trace: %v", err)
	}

	rp := rc
	rp.Record = false
	rp.Sched = "replay:" + path
	rep, err := Run(rp)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if !reflect.DeepEqual(rec.Stats, rep.Stats) {
		t.Fatalf("trace-file replay diverges from recording")
	}
	_ = os.Remove(path)
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
// 25% of its original decision count.
func TestExploreCatchesEarlyReleaseAndMinimizes(t *testing.T) {
	// A tiny retry budget makes irrevocable fallbacks (the broken path)
	// frequent under contention. intruder's decoder transaction is the
	// right victim: it stores to the shared fragment map, computes for 450
	// cycles, then pushes to the result queue — so with the global lock
	// wrongly released, concurrent decoders commit half views of it.
	scfg := stagger.DefaultConfig(stagger.ModeHTM)
	scfg.MaxRetries = 1
	rep, err := Explore(ExploreConfig{
		Benchmark:          "intruder",
		Mode:               stagger.ModeHTM,
		Threads:            4,
		Seed:               23,
		Stagger:            &scfg,
		Spec:               "pct:3",
		Runs:               12,
		Minimize:           true,
		UnsafeEarlyRelease: true,
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(rep.Failures) == 0 {
		t.Fatalf("campaign missed the broken irrevocable fallback (%d runs, %d commits)",
			rep.Runs, rep.Commits)
	}
	minimizedOne := false
	for _, f := range rep.Failures {
		if f.Minimized == nil {
			continue
		}
		minimizedOne = true
		if lim := len(f.Picks) / 4; len(f.Minimized) > lim {
			t.Errorf("minimized schedule has %d decisions, want <= %d (of %d)",
				len(f.Minimized), lim, len(f.Picks))
		}
	}
	if !minimizedOne {
		t.Fatalf("no failure reproduced under replay; minimization never ran")
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
