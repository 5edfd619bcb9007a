package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/stagger"
	"repro/internal/workloads"
)

// withWorkers runs f with the package worker default pinned to n and the
// result cache cleared before and after, so parallel-vs-sequential
// comparisons never observe each other's memoized cells.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	ClearCache()
	defer func() {
		SetWorkers(prev)
		ClearCache()
	}()
	f()
}

// memoKey is the memo key of a cacheable config, the way results
// derives it.
func memoKey(t *testing.T, rc RunConfig) string {
	t.Helper()
	c, err := normalize(rc)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := cacheableKey(c.rc)
	if !ok {
		t.Fatalf("%+v is not cacheable", rc)
	}
	return key
}

// memoSize is how many results the memo holds.
func memoSize() int {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return len(cache)
}

// statsFingerprint is a stable, complete rendering of a run's observable
// results (every counter, per-core clocks, runtime metrics, and the final
// verification verdict).
func statsFingerprint(r *Result) string {
	return fmt.Sprintf("stats=%+v metrics=%+v makespan=%d verify=%v",
		r.Stats, r.Metrics, r.Makespan(), r.VerifyErr)
}

// TestDeterminismEquivalenceEveryWorkload runs every workload through the
// sweep runner at workers=1 and workers=4 (cold cache each time) and
// requires identical result fingerprints: inter-run parallelism must not
// perturb a single counter of a single simulated run. Under `go test
// -race` this doubles as a data-race check on the whole parallel path.
func TestDeterminismEquivalenceEveryWorkload(t *testing.T) {
	var cfgs []RunConfig
	for _, b := range workloads.Names() {
		cfgs = append(cfgs,
			RunConfig{Benchmark: b, Mode: stagger.ModeHTM, Threads: 4, Seed: 7, TotalOps: 240},
			RunConfig{Benchmark: b, Mode: stagger.ModeStaggeredHW, Threads: 4, Seed: 7, TotalOps: 240})
	}
	fingerprints := func(workers int) []string {
		var fps []string
		withWorkers(t, workers, func() {
			for i, o := range RunAll(context.Background(), cfgs, workers) {
				if o.Err != nil {
					t.Fatalf("workers=%d cell %d (%s): %v", workers, i, cfgs[i].Benchmark, o.Err)
				}
				fps = append(fps, statsFingerprint(o.Res))
			}
		})
		return fps
	}
	seq := fingerprints(1)
	par := fingerprints(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("cell %d (%s %s): results diverge across worker counts\nworkers=1: %s\nworkers=4: %s",
				i, cfgs[i].Benchmark, cfgs[i].Mode, seq[i], par[i])
		}
	}
}

// TestTableOutputIdenticalAcrossWorkers regenerates a full table at both
// worker counts and compares the rendered bytes, pinning the guarantee
// end to end: the text a user sees is identical however many workers
// simulated it.
func TestTableOutputIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 regeneration in -short mode")
	}
	render := func(workers int) string {
		var s string
		withWorkers(t, workers, func() {
			rows, err := Table1(42)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			s = FormatTable1(rows)
		})
		return s
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("Table 1 bytes diverge across worker counts\nworkers=1:\n%s\nworkers=4:\n%s", seq, par)
	}
}

// TestChaosSweepIdenticalAcrossWorkers pins the campaign runner: parallel
// cells, identical report bytes — and the base cell's system reaches
// every point: on the limited backend at capacity 8 the same sweep aborts
// on speculative overflow, which the default backend never does.
func TestChaosSweepIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int, cell RunConfig) (cells []ChaosCell) {
		cell.Mode, cell.Threads, cell.TotalOps = stagger.ModeStaggeredHW, 4, 240
		withWorkers(t, workers, func() {
			var err error
			cells, err = RunChaosSweep(ChaosSweep{
				Benchmarks: []string{"list-hi", "tsp"},
				Rates:      []float64{0, 0.01},
				Cell:       cell,
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		})
		return cells
	}
	for name, cell := range map[string]RunConfig{
		"default": {},
		"limited": {Backend: "limited", Capacity: 8},
	} {
		seq, par := run(1, cell), run(4, cell)
		if s, p := FormatChaos(seq), FormatChaos(par); s != p {
			t.Fatalf("%s: chaos report diverges across worker counts\nworkers=1:\n%s\nworkers=4:\n%s", name, s, p)
		}
		for _, c := range seq {
			if (c.Overflow > 0) != (name == "limited") {
				t.Fatalf("%s sweep: %s at rate %g reports %d overflow aborts", name, c.Bench, c.Rate, c.Overflow)
			}
		}
	}
}

// TestExploreIdenticalAcrossWorkers pins the exploration campaign: run
// counts, commit totals, and the failure list (seeds and picks) must not
// depend on worker count.
func TestExploreIdenticalAcrossWorkers(t *testing.T) {
	campaign := func(workers int) (fp string) {
		withWorkers(t, workers, func() {
			cell := RunConfig{
				Benchmark: "list-hi", Mode: stagger.ModeStaggeredHW,
				Threads: 4, TotalOps: 120,
			}
			rep, err := ExploreCell(context.Background(), cell, 8, false)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			fp = fmt.Sprintf("runs=%d commits=%d failures=%+v", rep.Runs, rep.Commits, rep.Failures)
		})
		return fp
	}
	if seq, par := campaign(1), campaign(4); seq != par {
		t.Fatalf("explore report diverges across worker counts\nworkers=1: %s\nworkers=4: %s", seq, par)
	}
}

// TestSweepRunnerDoesNotMemoize pins the sweep runner as a pure map: it
// neither reads the memo (a planted entry is not served) nor writes it
// (cacheable cells leave it empty).
func TestSweepRunnerDoesNotMemoize(t *testing.T) {
	rc := RunConfig{Benchmark: "ssca2", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100}
	other := RunConfig{Benchmark: "kmeans", Mode: stagger.ModeStaggeredHW, Threads: 2, Seed: 5, TotalOps: 100}
	for _, workers := range []int{1, 2} {
		ClearCache()
		for i, o := range RunAll(context.Background(), []RunConfig{rc, other, rc}, workers) {
			if o.Err != nil {
				t.Fatalf("workers=%d cell %d: %v", workers, i, o.Err)
			}
		}
		if n := memoSize(); n != 0 {
			t.Fatalf("workers=%d left %d results in the memo, want 0", workers, n)
		}
	}
	defer ClearCache()
	planted := &Result{Config: rc}
	memoize(memoKey(t, rc), planted)
	if out := RunAll(context.Background(), []RunConfig{rc}, 1); out[0].Err != nil || out[0].Res == planted {
		t.Fatalf("sweep runner served the memo's entry instead of simulating (err %v)", out[0].Err)
	}
}

// TestResultsPopulatesMemo: results is where runs enter the memo, so a
// table generator leaves exactly that table's distinct cells behind —
// each simulated once — at any worker count, and a second generation is
// all hits.
func TestResultsPopulatesMemo(t *testing.T) {
	for _, workers := range []int{1, 2} {
		withWorkers(t, workers, func() {
			rows, err := Scaling("ssca2", 5)
			if err != nil {
				t.Fatal(err)
			}
			// Scaling lists the sequential baseline twice and runs 5 thread
			// counts under 2 systems: 10 distinct cells.
			if n := memoSize(); n != 10 {
				t.Fatalf("workers=%d: memo holds %d cells after Scaling, want its 10 distinct cells", workers, n)
			}
			for _, th := range []int{1, 2, 4, 8, 16} {
				for _, m := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
					if cached(memoKey(t, RunConfig{Benchmark: "ssca2", Mode: m, Threads: th, Seed: 5})) == nil {
						t.Fatalf("workers=%d: cell %s t%d missing from the memo", workers, m, th)
					}
				}
			}
			again, err := Scaling("ssca2", 5)
			if err != nil {
				t.Fatal(err)
			}
			if memoSize() != 10 || FormatScaling("ssca2", again) != FormatScaling("ssca2", rows) {
				t.Fatalf("workers=%d: regenerating from a hot memo changed the memo or the output", workers)
			}
		})
	}
}

// TestResultsErrorOnceAndIdentical: a cell that cannot finish is
// simulated once however often it is listed, its siblings still run (and
// are memoized), and the error is the first in input order with the same
// text at every worker count.
func TestResultsErrorOnceAndIdentical(t *testing.T) {
	good := RunConfig{Benchmark: "ssca2", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100}
	// Threads beyond the machine's cores normalizes fine and is cacheable,
	// but fails when the run builds its machine.
	bad := RunConfig{Benchmark: "kmeans", Mode: stagger.ModeHTM, Threads: 99, Seed: 5, TotalOps: 100}
	worse := RunConfig{Benchmark: "no-such-benchmark", Threads: 2}
	var texts []string
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			runs := 0
			simulate = func(ctx context.Context, cfgs []RunConfig, workers int) []RunOutcome {
				runs += len(cfgs)
				return RunAll(ctx, cfgs, workers)
			}
			defer func() { simulate = RunAll }()
			_, err := results([]RunConfig{good, bad, worse, bad})
			if err == nil {
				t.Fatalf("workers=%d: no error from a sweep with failing cells", workers)
			}
			texts = append(texts, err.Error())
			if runs != 2 {
				t.Fatalf("workers=%d: %d simulations for one good and one (twice-listed) failing cell, want 2", workers, runs)
			}
			if memoSize() != 1 || cached(memoKey(t, good)) == nil {
				t.Fatalf("workers=%d: memo holds %d cells, want only the good one", workers, memoSize())
			}
		})
	}
	if texts[0] != texts[1] || !strings.Contains(texts[0], "99 threads exceed") {
		t.Fatalf("error text differs across worker counts or is not the first failing cell's:\nworkers=1: %s\nworkers=4: %s", texts[0], texts[1])
	}
}

// TestCacheableKeyBypasses pins which configs may never be memoized.
func TestCacheableKeyBypasses(t *testing.T) {
	base := RunConfig{Benchmark: "ssca2", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100}
	memoKey(t, base) // a plain config must be cacheable
	withWatchdog := base
	withWatchdog.Watchdog = 1 << 20
	// A watchdog is cell input (it decides whether the run fails), so it
	// is keyed, not bypassed.
	if memoKey(t, withWatchdog) == memoKey(t, base) {
		t.Fatal("a watchdog config must key apart from the plain cell")
	}
	withTrace := base
	withTrace.TraceN = 8
	if _, ok := cacheableKey(withTrace); ok {
		t.Fatal("a trace-capturing config must bypass the cache")
	}
	// Seed 0 canonicalizes to Run's default, so the two configs are the
	// same cell and must share a key.
	zero, a := base, base
	zero.Seed = 0
	a.Seed = 42
	if memoKey(t, zero) != memoKey(t, a) {
		t.Fatal("seed 0 must canonicalize to the default seed's key")
	}
}

// TestRunAllOrderingAndErrors pins RunAll's contract: outcomes land at
// their input index whatever the completion order, per-cell errors stay
// per-cell, and a cancelled context marks unstarted cells.
func TestRunAllOrderingAndErrors(t *testing.T) {
	ClearCache()
	defer ClearCache()
	cfgs := []RunConfig{
		{Benchmark: "ssca2", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100},
		{Benchmark: "no-such-benchmark", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100},
		{Benchmark: "list-hi", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100},
	}
	out := RunAll(context.Background(), cfgs, 3)
	if out[0].Err != nil || out[0].Res == nil || out[0].Res.Config.Benchmark != "ssca2" {
		t.Fatalf("cell 0: %+v", out[0])
	}
	if out[1].Err == nil {
		t.Fatal("unknown benchmark must surface its error at its own index")
	}
	if out[2].Err != nil || out[2].Res.Config.Benchmark != "list-hi" {
		t.Fatalf("cell 2: %+v", out[2])
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, o := range RunAll(ctx, cfgs, 2) {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("cell %d after cancel: err=%v", i, o.Err)
		}
	}

	// A deliver error must stop the sweep and propagate.
	sentinel := errors.New("stop")
	err := Sweep(context.Background(), cfgs, 2, func(i int, o RunOutcome) error {
		if i == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("deliver error not propagated: %v", err)
	}
}

// TestSplitOps pins the per-thread operation split: remainders go to the
// lowest thread IDs, one each, and the shares always sum to the total.
func TestSplitOps(t *testing.T) {
	cases := []struct {
		total, threads int
		want           []int
	}{
		{total: 8, threads: 4, want: []int{2, 2, 2, 2}},
		{total: 10, threads: 4, want: []int{3, 3, 2, 2}},
		{total: 7, threads: 3, want: []int{3, 2, 2}},
		{total: 2, threads: 5, want: []int{1, 1, 0, 0, 0}},
		{total: 0, threads: 3, want: []int{0, 0, 0}},
		{total: 5, threads: 5, want: []int{1, 1, 1, 1, 1}},
		{total: 1, threads: 1, want: []int{1}},
	}
	for _, tc := range cases {
		sum := 0
		for tid := 0; tid < tc.threads; tid++ {
			got := workloads.Split(tc.total, tc.threads, tid)
			if got != tc.want[tid] {
				t.Errorf("workloads.Split(%d, %d, %d) = %d, want %d",
					tc.total, tc.threads, tid, got, tc.want[tid])
			}
			sum += got
		}
		if sum != tc.total {
			t.Errorf("workloads.Split(%d, %d, *) sums to %d", tc.total, tc.threads, sum)
		}
	}
	// Property sweep: shares sum to the total and differ by at most one.
	for total := 0; total <= 40; total++ {
		for threads := 1; threads <= 9; threads++ {
			sum, lo, hi := 0, int(^uint(0)>>1), 0
			for tid := 0; tid < threads; tid++ {
				n := workloads.Split(total, threads, tid)
				sum += n
				if n < lo {
					lo = n
				}
				if n > hi {
					hi = n
				}
			}
			if sum != total || hi-lo > 1 {
				t.Fatalf("workloads.Split(%d, %d): sum=%d spread=%d", total, threads, sum, hi-lo)
			}
		}
	}
}
