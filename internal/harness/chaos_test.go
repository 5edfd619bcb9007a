package harness

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
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

// chaosRC is a small staggered cell injecting every fault class at rate,
// with its faults seeded by the workload seed 42.
func chaosRC(bench string, threads int, rate float64) RunConfig {
	return RunConfig{
		Benchmark: bench,
		Mode:      stagger.ModeStaggeredHW,
		Threads:   threads,
		Seed:      42,
		TotalOps:  smallOps(bench),
		ChaosRate: rate,
		Watchdog:  500_000_000,
	}
}

// TestChaosSmoke is the CI smoke: a representative chaos cell must finish
// under the watchdog, inject faults, and pass verification. Its campaign
// table shows each cell's lost releases in a drops column.
func TestChaosSmoke(t *testing.T) {
	res, err := Run(chaosRC("list-hi", 8, 0.01))
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

	cells, err := RunChaosSweep(ChaosSweep{
		Benchmarks: []string{"list-hi"},
		Rates:      []float64{0, 0.01, 0.05},
		Cell:       chaosRC("list-hi", 8, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(FormatChaos(cells), "\n"), "\n")
	col := slices.Index(strings.Fields(lines[1]), "drops")
	if col < 0 || len(lines) != 2+len(cells) {
		t.Fatalf("campaign table has no drops column or not one row per cell:\n%s", strings.Join(lines, "\n"))
	}
	var drops uint64
	for i, c := range cells {
		if got, want := strings.Fields(lines[2+i])[col], fmt.Sprint(c.Faults.LockDrops); got != want {
			t.Fatalf("%s@%g: drops column reads %s, the cell dropped %s releases", c.Bench, c.Rate, got, want)
		}
		drops += c.Faults.LockDrops
	}
	if drops == 0 {
		t.Fatal("the campaign dropped no releases, so its drops column shows nothing")
	}
}

// TestChaosDeterminism is the reproducibility property: identical
// (seed, fault rate, fault seed) must give bit-identical stats, fault
// counts, and transaction traces.
func TestChaosDeterminism(t *testing.T) {
	for _, bench := range []string{"list-hi", "kmeans"} {
		rc := chaosRC(bench, 8, 0.02)
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
		rc := chaosRC("list-hi", 8, 0.02)
		rc.ChaosSeed = seed
		res, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res.Faults
	}
	if mk(1) == mk(2) {
		t.Fatal("chaos seeds 1 and 2 delivered identical fault counts")
	}
}

// TestChaosAllWorkloadsVerify: the fault mix leaves every workload's
// invariants intact at 16 threads — slower is acceptable, wrong is not —
// and each fault class it delivers lands in the simulator's own
// accounting exactly once. The four class subtests of one workload read
// one memoized run.
func TestChaosAllWorkloadsVerify(t *testing.T) {
	ClearCache()
	defer ClearCache()
	faultWait := func(res *Result) error {
		f := res.Faults
		if got, want := res.Stats.WaitCycles[htm.WaitFault], f.Jitters*chaos.JitterCycles+f.NTDelays*chaos.NTDelayCycles; got != want {
			return fmt.Errorf("fault wait = %d cycles, want %d for %+v", got, want, f)
		}
		return nil
	}
	classes := []struct {
		name  string
		check func(*Result) error
	}{
		{"abort", func(res *Result) error {
			if got := res.Stats.Aborts[htm.AbortSpurious]; got == 0 || got != res.Faults.Aborts {
				return fmt.Errorf("%d spurious aborts for %d injected", got, res.Faults.Aborts)
			}
			return nil
		}},
		{"jitter", func(res *Result) error {
			if res.Faults.Jitters == 0 {
				return errors.New("no stall jitter injected")
			}
			return faultWait(res)
		}},
		{"lockdrop", func(res *Result) error {
			if res.Faults.LockDrops > res.Metrics.LocksAcquired {
				return fmt.Errorf("%d lost releases of %d acquired locks", res.Faults.LockDrops, res.Metrics.LocksAcquired)
			}
			return nil
		}},
		{"ntdelay", faultWait},
	}
	for _, bench := range workloads.Names() {
		for _, cls := range classes {
			t.Run(cls.name+"/"+bench, func(t *testing.T) {
				res, err := RunCached(chaosRC(bench, 16, 0.02)) // a failed Verify is an error
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Commits == 0 {
					t.Fatal("no transactions committed")
				}
				if err := cls.check(res); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestChaosZeroImpact: with chaos off, the hook plumbing (nil injector, a
// generous watchdog, a fault seed with no rate) must leave the baseline
// run bit-identical — the acceptance bar for zero-cost instrumentation.
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
	zeroRate.ChaosSeed = 9 // no rate: no injector
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

// TestRunCachedMemoizesChaos: a chaos cell is simulation input like any
// other, so it is memoized under its cell's key, and a different fault
// seed or watchdog is a different cell.
func TestRunCachedMemoizesChaos(t *testing.T) {
	ClearCache()
	defer ClearCache()
	rc := RunConfig{
		Benchmark: "kmeans", Mode: stagger.ModeHTM,
		Threads: 2, Seed: 9, TotalOps: 100, ChaosRate: 0.01,
	}
	run := func(set func(*RunConfig)) *Result {
		t.Helper()
		c := rc
		set(&c)
		res, err := RunCached(c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(func(*RunConfig) {})
	if run(func(*RunConfig) {}) != a {
		t.Fatal("a repeated chaos cell was not served from the memo")
	}
	if run(func(c *RunConfig) { c.ChaosSeed = c.Seed }) != a {
		t.Fatal("the default fault seed, spelled out, keyed apart")
	}
	if run(func(c *RunConfig) { c.ChaosSeed = 10 }) == a {
		t.Fatal("a different fault seed shared the memo entry")
	}
	if run(func(c *RunConfig) { c.Watchdog = 1 << 40 }) == a {
		t.Fatal("a different watchdog shared the memo entry")
	}
}
