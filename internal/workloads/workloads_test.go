package workloads_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// TestAllBenchmarksAllModes smoke-tests every benchmark under every
// system at small scale: runs must complete, verify, and commit work.
func TestAllBenchmarksAllModes(t *testing.T) {
	modes := []stagger.Mode{stagger.ModeHTM, stagger.ModeAddrOnly,
		stagger.ModeStaggeredSW, stagger.ModeStaggeredHW}
	for _, name := range workloads.Names() {
		for _, mode := range modes {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				res, err := harness.Run(harness.RunConfig{
					Benchmark: name,
					Mode:      mode,
					Threads:   4,
					Seed:      7,
					TotalOps:  smallOps(name),
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.VerifyErr != nil {
					t.Fatalf("verify: %v", res.VerifyErr)
				}
				if res.Stats.Commits == 0 {
					t.Fatal("no transactions committed")
				}
				if res.Makespan() == 0 {
					t.Fatal("zero makespan")
				}
			})
		}
	}
}

// smallOps shrinks fixed-shape workloads enough for fast CI runs.
func smallOps(name string) int {
	switch name {
	case "intruder", "tsp":
		return 0 // queue-driven: use the workload default
	case "labyrinth":
		return 24
	default:
		return 240
	}
}

func TestSingleThreadMatchesSequential(t *testing.T) {
	for _, name := range workloads.Names() {
		res, err := harness.Run(harness.RunConfig{
			Benchmark: name,
			Mode:      stagger.ModeHTM,
			Threads:   1,
			Seed:      3,
			TotalOps:  smallOps(name),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.VerifyErr != nil {
			t.Fatalf("%s: verify: %v", name, res.VerifyErr)
		}
		if got := res.Stats.TotalAborts(); got != 0 {
			t.Errorf("%s: single-thread run aborted %d times", name, got)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	for _, name := range []string{"list-hi", "memcached", "tsp"} {
		run := func() *harness.Result {
			res, err := harness.Run(harness.RunConfig{
				Benchmark: name,
				Mode:      stagger.ModeStaggeredHW,
				Threads:   4,
				Seed:      11,
				TotalOps:  smallOps(name),
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.Makespan() != b.Makespan() || a.Stats.Commits != b.Stats.Commits ||
			a.Stats.TotalAborts() != b.Stats.TotalAborts() || a.Metrics != b.Metrics {
			t.Errorf("%s: nondeterministic across runs", name)
		}
	}
}

func TestWorkloadMetadata(t *testing.T) {
	names := workloads.Names()
	if len(names) != 10 {
		t.Fatalf("registered %d benchmarks, want 10: %v", len(names), names)
	}
	for _, n := range names {
		w, err := workloads.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if w.Description == "" || w.Contention == "" {
			t.Errorf("%s: missing metadata", n)
		}
		if !w.Mod.Finalized() {
			t.Errorf("%s: module not finalized", n)
		}
		if len(w.Mod.Atomics) == 0 {
			t.Errorf("%s: no atomic blocks", n)
		}
		if w.TotalOps <= 0 {
			t.Errorf("%s: bad TotalOps %d", n, w.TotalOps)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := workloads.Get("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestDefaultOpsIsStatic: the default operation count of every benchmark
// is answered without building it, agrees with what a built instance
// carries, and an unknown name is an error there too.
func TestDefaultOpsIsStatic(t *testing.T) {
	before := workloads.Builds()
	ops := map[string]int{}
	for _, n := range workloads.Names() {
		v, err := workloads.DefaultOps(n)
		if err != nil || v <= 0 {
			t.Fatalf("DefaultOps(%s) = %d, %v", n, v, err)
		}
		ops[n] = v
	}
	if _, err := workloads.DefaultOps("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if built := workloads.Builds() - before; built != 0 {
		t.Fatalf("DefaultOps built %d workloads", built)
	}
	for n, want := range ops {
		w, err := workloads.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if w.TotalOps != want {
			t.Errorf("%s: built TotalOps %d, DefaultOps %d", n, w.TotalOps, want)
		}
	}
	if built := workloads.Builds() - before; built != uint64(len(ops)) {
		t.Fatalf("Builds counted %d for %d Gets", built, len(ops))
	}
}

// TestThreadSweep: every benchmark verifies at 1, 2, 8, and 16 threads
// under the staggered system — the invariants must hold at any width.
func TestThreadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	for _, name := range workloads.Names() {
		for _, threads := range []int{1, 2, 8, 16} {
			res, err := harness.Run(harness.RunConfig{
				Benchmark: name,
				Mode:      stagger.ModeStaggeredHW,
				Threads:   threads,
				Seed:      13,
				TotalOps:  smallOps(name),
			})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, threads, err)
			}
			if res.VerifyErr != nil {
				t.Fatalf("%s/%d: verify: %v", name, threads, res.VerifyErr)
			}
		}
	}
}

// TestSeedSweep: correctness must not depend on the seed.
func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	for _, name := range []string{"list-hi", "tsp", "memcached", "labyrinth", "genome"} {
		for _, seed := range []int64{1, 99, 12345} {
			res, err := harness.Run(harness.RunConfig{
				Benchmark: name,
				Mode:      stagger.ModeStaggeredHW,
				Threads:   8,
				Seed:      seed,
				TotalOps:  smallOps(name),
			})
			if err != nil {
				t.Fatalf("%s/seed%d: %v", name, seed, err)
			}
			if res.VerifyErr != nil {
				t.Fatalf("%s/seed%d: verify: %v", name, seed, res.VerifyErr)
			}
		}
	}
}

// TestLazyModeAllBenchmarks: the lazy-TM extension must preserve every
// workload invariant.
func TestLazyModeAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	for _, name := range workloads.Names() {
		for _, mode := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
			res, err := harness.Run(harness.RunConfig{
				Benchmark: name,
				Mode:      mode,
				Threads:   8,
				Seed:      7,
				TotalOps:  smallOps(name),
				Lazy:      true,
			})
			if err != nil {
				t.Fatalf("%s/%v lazy: %v", name, mode, err)
			}
			if res.VerifyErr != nil {
				t.Fatalf("%s/%v lazy: verify: %v", name, mode, res.VerifyErr)
			}
		}
	}
}

// TestInstrumentationAccuracyFloor: anchor identification accuracy stays
// high across all benchmarks at full contention.
func TestInstrumentationAccuracyFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	for _, name := range workloads.Names() {
		res, err := harness.Run(harness.RunConfig{
			Benchmark: name,
			Mode:      stagger.ModeStaggeredHW,
			Threads:   16,
			Seed:      42,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.AccTotal > 20 && res.Metrics.Accuracy() < 0.8 {
			t.Errorf("%s: accuracy %.2f below floor (%d/%d)",
				name, res.Metrics.Accuracy(), res.Metrics.AccHits, res.Metrics.AccTotal)
		}
	}
}
