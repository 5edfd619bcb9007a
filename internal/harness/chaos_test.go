package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/htm"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// smallOps shrinks fixed-shape workloads for fast chaos runs (mirrors the
// workloads package's CI sizing).
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

func chaosRC(bench string, threads int, c *chaos.Config) RunConfig {
	return RunConfig{
		Benchmark: bench,
		Mode:      stagger.ModeStaggeredHW,
		Threads:   threads,
		Seed:      42,
		TotalOps:  smallOps(bench),
		Chaos:     c,
		Watchdog:  500_000_000,
	}
}

// TestChaosSmoke is the CI smoke: a representative chaos cell must finish
// under the watchdog, inject faults, and pass verification.
func TestChaosSmoke(t *testing.T) {
	ccfg := chaos.Scaled(0.01, 42)
	res, err := Run(chaosRC("list-hi", 8, &ccfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("verify: %v", res.VerifyErr)
	}
	if res.Faults.Total() == 0 {
		t.Fatal("chaos run injected no faults")
	}
	if res.Stats.Aborts[htm.AbortSpurious] == 0 {
		t.Fatal("no spurious aborts observed at rate 0.01")
	}
}

// TestChaosDeterminism is the reproducibility property: identical
// (seed, chaos config) must give bit-identical stats, fault counts, and
// transaction traces.
func TestChaosDeterminism(t *testing.T) {
	for _, bench := range []string{"list-hi", "kmeans"} {
		ccfg := chaos.Scaled(0.02, 7)
		rc := chaosRC(bench, 8, &ccfg)
		rc.Seed = 7
		rc.TraceN = 4096
		a, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Fatalf("%s: stats differ across identical chaos runs:\n%+v\n%+v",
				bench, a.Stats, b.Stats)
		}
		if a.Faults != b.Faults {
			t.Fatalf("%s: fault counts differ: %+v vs %+v", bench, a.Faults, b.Faults)
		}
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Fatalf("%s: abort/commit traces differ across identical chaos runs", bench)
		}
		if a.Faults.Total() == 0 {
			t.Fatalf("%s: no faults injected at rate 0.02", bench)
		}
	}
}

// TestChaosSeedChangesSchedule: a different chaos seed must actually
// change the fault schedule (guards against a stuck stream).
func TestChaosSeedChangesSchedule(t *testing.T) {
	mk := func(seed int64) chaos.Counts {
		ccfg := chaos.Scaled(0.02, seed)
		res, err := Run(chaosRC("list-hi", 8, &ccfg))
		if err != nil {
			t.Fatal(err)
		}
		return res.Faults
	}
	if mk(1) == mk(2) {
		t.Fatal("chaos seeds 1 and 2 delivered identical fault counts")
	}
}

// TestChaosAllWorkloadsVerify: each fault class alone must leave every
// workload's invariants intact at 16 threads — slower is acceptable,
// wrong is not.
func TestChaosAllWorkloadsVerify(t *testing.T) {
	classes := map[string]chaos.Config{
		"abort":    {AbortRate: 0.02, Seed: 42},
		"ntdelay":  {NTDelayRate: 0.05, NTDelayCycles: 300, Seed: 42},
		"lockdrop": {LockDropRate: 0.2, Seed: 42},
		"jitter":   {JitterRate: 0.02, JitterCycles: 60, Seed: 42},
	}
	for cls, ccfg := range classes {
		for _, bench := range workloads.Names() {
			ccfg := ccfg
			t.Run(cls+"/"+bench, func(t *testing.T) {
				res, err := Run(chaosRC(bench, 16, &ccfg))
				if err != nil {
					t.Fatal(err)
				}
				if res.VerifyErr != nil {
					t.Fatalf("verify: %v (faults %+v)", res.VerifyErr, res.Faults)
				}
				if res.Stats.Commits == 0 {
					t.Fatal("no transactions committed")
				}
			})
		}
	}
}

// TestChaosZeroImpact: with chaos off, the hook plumbing (nil injector, a
// generous watchdog, a zero-rate config) must leave the baseline run
// bit-identical — the acceptance bar for zero-cost instrumentation.
func TestChaosZeroImpact(t *testing.T) {
	base := RunConfig{
		Benchmark: "list-hi", Mode: stagger.ModeStaggeredHW,
		Threads: 8, Seed: 42, TotalOps: 240,
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	withWD := base
	withWD.Watchdog = 1 << 40
	zeroRate := base
	zeroRate.Chaos = &chaos.Config{} // Enabled() == false: no injector
	for name, rc := range map[string]RunConfig{"watchdog": withWD, "zero-rate": zeroRate} {
		got, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Stats, got.Stats) {
			t.Fatalf("%s: stats differ from baseline:\nbase %+v\ngot  %+v",
				name, ref.Stats, got.Stats)
		}
		if got.Faults.Total() != 0 {
			t.Fatalf("%s: fault counts nonzero without chaos", name)
		}
	}
}

// TestWatchdogSurfacesThroughHarness: an absurdly tight bound must turn
// into a run error that names the watchdog, not a hang or a panic.
func TestWatchdogSurfacesThroughHarness(t *testing.T) {
	_, err := Run(RunConfig{
		Benchmark: "kmeans", Mode: stagger.ModeHTM,
		Threads: 4, Seed: 42, TotalOps: 240, Watchdog: 500,
	})
	if err == nil {
		t.Fatal("500-cycle watchdog did not trip")
	}
	var we *htm.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want wrapped *htm.WatchdogError", err)
	}
	if !strings.Contains(err.Error(), "kmeans") {
		t.Fatalf("error %q lacks benchmark context", err)
	}
}

// TestChaosSweepRuns: a small campaign must produce one cell per
// (benchmark, rate) with sane degradation ratios and no failures.
func TestChaosSweepRuns(t *testing.T) {
	cells, err := RunChaosSweep(ChaosSweep{
		Benchmarks: []string{"list-hi", "kmeans"},
		Rates:      []float64{0, 0.01},
		Cell:       RunConfig{Threads: 8, TotalOps: 240},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for _, c := range cells {
		if c.VerifyErr != nil {
			t.Fatalf("%s@%g: verify: %v", c.Bench, c.Rate, c.VerifyErr)
		}
		if c.Rate == 0 && c.Degradation != 1.0 {
			t.Fatalf("%s: rate-0 degradation = %v, want 1.0", c.Bench, c.Degradation)
		}
		if c.Rate > 0 && c.Faults.Total() == 0 {
			t.Fatalf("%s@%g: no faults injected", c.Bench, c.Rate)
		}
	}
	out := FormatChaos(cells)
	if !strings.Contains(out, "list-hi") || !strings.Contains(out, "degradation") {
		t.Fatalf("FormatChaos output malformed:\n%s", out)
	}
}

// TestChaosCampaignOnPaperRuntime is what deleting the self-healing
// runtime configuration relies on (EXPERIMENTS.md "Chaos campaign on the
// paper's runtime"): with nothing but the paper's LockTimeout and
// irrevocable fallback, every workload on every system survives the
// campaign from its mildest rate to one fault in three events — each
// cell finishes under ChaosWatchdog, injects faults, and verifies. It is
// also the standing census behind the service's one-pass jobs: no chaos
// cell a spec can name without its own watchdog trips the default one.
// The systems are the two modes no backend spells plus every registered
// backend (mode htm is backend htm, mode staggered is backend staggered).
func TestChaosCampaignOnPaperRuntime(t *testing.T) {
	benches := workloads.Names()
	if testing.Short() {
		benches = []string{"memcached", "intruder"}
	}
	systems := []RunConfig{{Mode: stagger.ModeAddrOnly}, {Mode: stagger.ModeStaggeredSW}}
	for _, name := range backend.Names() {
		systems = append(systems, RunConfig{Backend: name})
	}
	for _, sys := range systems {
		label := sys.Backend
		if label == "" {
			label = sys.Mode.String()
		}
		cells, err := RunChaosSweep(ChaosSweep{
			Benchmarks: benches,
			Rates:      []float64{0.002, 0.05, 0.3},
			Cell:       sys,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := len(benches) * 4; len(cells) != want { // the sweep adds rate 0
			t.Fatalf("%s: %d cells, want %d", label, len(cells), want)
		}
		for _, c := range cells {
			if c.Rate > 0 && c.Faults.Total() == 0 {
				t.Errorf("%s %s@%g: no faults injected", label, c.Bench, c.Rate)
			}
			if c.Commits == 0 {
				t.Errorf("%s %s@%g: no transactions committed", label, c.Bench, c.Rate)
			}
		}
	}
}

// TestResultsRejectsInvariantFailure: the table/figure generators must
// refuse a result whose workload verification failed, instead of
// silently folding a corrupted run into the paper's numbers.
func TestResultsRejectsInvariantFailure(t *testing.T) {
	ClearCache()
	defer ClearCache()
	rc := RunConfig{Benchmark: "kmeans", Mode: stagger.ModeHTM, Threads: 2, Seed: 7, TotalOps: 100}
	memoize(memoKey(t, rc), &Result{Config: rc, VerifyErr: errors.New("poisoned invariant")})
	_, err := results([]RunConfig{rc})
	if err == nil || !strings.Contains(err.Error(), "verify failed") {
		t.Fatalf("results returned %v, want verify failure", err)
	}
}

// TestRunCachedBypassesChaos: chaos and watchdog runs must never be
// served from (or poison) the memoization cache.
func TestRunCachedBypassesChaos(t *testing.T) {
	ClearCache()
	defer ClearCache()
	ccfg := chaos.Scaled(0.01, 42)
	rc := RunConfig{
		Benchmark: "kmeans", Mode: stagger.ModeHTM,
		Threads: 2, Seed: 9, TotalOps: 100, Chaos: &ccfg,
	}
	a, err := RunCached(rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCached(rc)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("chaos run was memoized")
	}
	wd := RunConfig{Benchmark: "kmeans", Mode: stagger.ModeHTM, Threads: 2, Seed: 9, TotalOps: 100, Watchdog: 1 << 40}
	c, err := RunCached(wd)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunCached(wd)
	if err != nil {
		t.Fatal(err)
	}
	if c == d {
		t.Fatal("watchdog run was memoized")
	}
}
