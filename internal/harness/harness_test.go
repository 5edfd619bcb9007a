package harness

import (
	"strings"
	"testing"

	"repro/internal/stagger"
)

func TestRunBasic(t *testing.T) {
	res, err := Run(RunConfig{
		Benchmark: "kmeans", Mode: stagger.ModeHTM, Threads: 4, Seed: 3, TotalOps: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("verify: %v", res.VerifyErr)
	}
	if res.Stats.Commits == 0 || res.Makespan() == 0 {
		t.Fatal("empty result")
	}
	if res.NumABs == 0 || res.StaticAccesses == 0 {
		t.Fatal("missing static metadata")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(RunConfig{Benchmark: "nope", Mode: stagger.ModeHTM, Threads: 1}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(RunConfig{Benchmark: "kmeans", Mode: stagger.ModeHTM, Threads: 0}); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := Run(RunConfig{Benchmark: "kmeans", Mode: stagger.ModeHTM, Threads: 99}); err == nil {
		t.Error("threads > cores accepted")
	}
}

func TestRunCachedMemoizes(t *testing.T) {
	ClearCache()
	rc := RunConfig{Benchmark: "ssca2", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100}
	a, err := RunCached(rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCached(rc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configs not memoized")
	}
	rc.Naive = true
	c, err := RunCached(rc)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct configs shared a cache entry")
	}
	// Overridden configs must bypass the cache.
	scfg := stagger.DefaultConfig(stagger.ModeHTM)
	rc.Naive = false
	rc.Stagger = &scfg
	d, err := RunCached(rc)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("override config hit the cache")
	}
}

func TestSpeedupPositive(t *testing.T) {
	s, res, err := Speedup(RunConfig{
		Benchmark: "ssca2", Mode: stagger.ModeHTM, Threads: 4, Seed: 2, TotalOps: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s <= 1.0 {
		t.Fatalf("4-thread ssca2 speedup = %.2f, want > 1", s)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
}

func TestTable2Format(t *testing.T) {
	out := Table2()
	for _, want := range []string{"L1 cache", "eager requester-wins", "12-bit PC tag"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

// TestPaperExperiments exercises the full table/figure generators at the
// canonical seed. It is the repository's end-to-end regression: shapes
// (who wins, directions of effects) must match the paper.
func TestPaperExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	const seed = 42

	t1, err := Table1(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != 6 {
		t.Fatalf("Table 1 rows = %d, want 6", len(t1))
	}
	for _, r := range t1 {
		if r.S <= 0 {
			t.Errorf("table1 %s: speedup %f", r.Bench, r.S)
		}
		if !r.LP {
			t.Errorf("table1 %s: conflicting-PC locality should hold (paper: LP=Y everywhere)", r.Bench)
		}
	}

	t3, err := Table3(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t3 {
		if r.Anchors <= 0 || r.Anchors > r.LdSt {
			t.Errorf("table3 %s: anchors %d of %d", r.Bench, r.Anchors, r.LdSt)
		}
		if r.Accuracy < 0.8 {
			t.Errorf("table3 %s: accuracy %.2f below sanity floor", r.Bench, r.Accuracy)
		}
		if r.ExecTimeInc > 0.25 {
			t.Errorf("table3 %s: instrumentation overhead %.0f%% implausible", r.Bench, r.ExecTimeInc*100)
		}
	}

	t4, err := Table4(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4) != 10 {
		t.Fatalf("Table 4 rows = %d, want 10", len(t4))
	}
	byName := map[string]Table4Row{}
	for _, r := range t4 {
		byName[r.Bench] = r
	}
	// Paper shape: list-hi and labyrinth are the worst scalers; vacation
	// and ssca2 scale well; high-contention rows abort much more than
	// low-contention rows.
	if byName["list-hi"].S >= byName["vacation"].S {
		t.Error("list-hi should scale far worse than vacation")
	}
	if byName["labyrinth"].S >= byName["ssca2"].S {
		t.Error("labyrinth should scale far worse than ssca2")
	}
	if byName["memcached"].AbtsPerC <= byName["genome"].AbtsPerC {
		t.Error("memcached should abort more than genome")
	}

	f7, err := Figure7(seed)
	if err != nil {
		t.Fatal(err)
	}
	wins, losses := 0, 0
	for _, r := range f7 {
		if r.StagHW >= 1.15 {
			wins++
		}
		if r.StagHW < 0.90 {
			losses++
		}
	}
	if wins < 4 {
		t.Errorf("Figure 7: only %d benchmarks improved >= 15%% under Staggered (paper: 5+)", wins)
	}
	if losses > 0 {
		t.Errorf("Figure 7: %d benchmarks slowed > 10%% under Staggered (paper: none)", losses)
	}

	f8, err := Figure8(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f8 {
		if r.Bench == "ssca2" {
			continue // too few aborts to be meaningful
		}
		if r.StagAbortsPerCommit > r.HTMAbortsPerCommit*1.05 {
			t.Errorf("Figure 8 %s: staggered aborts %.2f exceed baseline %.2f",
				r.Bench, r.StagAbortsPerCommit, r.HTMAbortsPerCommit)
		}
	}

	cs, err := Claims(seed)
	if err != nil {
		t.Fatal(err)
	}
	if cs.HarmonicMeanImprovement <= 0.05 {
		t.Errorf("harmonic-mean improvement %.1f%% (paper: 24%%)", cs.HarmonicMeanImprovement*100)
	}
	if cs.MaxAbortReduction < 0.5 {
		t.Errorf("max abort reduction %.0f%% (paper: 89%%)", cs.MaxAbortReduction*100)
	}
	if cs.MeanAbortReduction < 0.25 {
		t.Errorf("mean abort reduction %.0f%% (paper: 64%%)", cs.MeanAbortReduction*100)
	}
}
