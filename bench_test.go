// Design ablations: one testing.B target per design choice DESIGN.md
// calls out and EXPERIMENTS.md quotes. Each drives full deterministic
// simulations and reports the headline numbers as custom metrics, so
//
//	go test -bench=Ablation -benchtime 1x .
//
// regenerates them; results repeat bit-identically across runs. Wall
// time of the paper's tables and figures, and raw simulator speed, are
// the perf ledger's business (bench/, `make bench`).
package main

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/stagger"
)

const benchSeed = 42

// BenchmarkAblationInstrumentation compares DSA-guided anchor selection
// against naive every-load/store instrumentation (Section 6.1): the
// single-thread execution-time increase of each.
func BenchmarkAblationInstrumentation(b *testing.B) {
	for _, bench := range []string{"list-hi", "tsp", "memcached", "vacation"} {
		b.Run(bench, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base, err := harness.RunCached(harness.RunConfig{
					Benchmark: bench, Mode: stagger.ModeHTM, Threads: 1, Seed: benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				dsa, err := harness.RunCached(harness.RunConfig{
					Benchmark: bench, Mode: stagger.ModeStaggeredHW, Threads: 1, Seed: benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				naive, err := harness.RunCached(harness.RunConfig{
					Benchmark: bench, Mode: stagger.ModeStaggeredHW, Threads: 1, Seed: benchSeed,
					Naive: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					d := float64(dsa.Makespan())/float64(base.Makespan()) - 1
					n := float64(naive.Makespan())/float64(base.Makespan()) - 1
					b.ReportMetric(d*100, "dsa_overhead_%")
					b.ReportMetric(n*100, "naive_overhead_%")
				}
			}
		})
	}
}

// BenchmarkAblationPolicyModes disables policy modes selectively on
// list-hi, whose conflicts need coarse-grain locking and promotion:
// precise-only should barely help, the full policy should win.
func BenchmarkAblationPolicyModes(b *testing.B) {
	variants := []struct {
		name   string
		mutate func(*stagger.Config)
	}{
		{"full", func(c *stagger.Config) {}},
		{"no-promotion", func(c *stagger.Config) { c.PromThr = 1 << 30 }},
		{"precise-only", func(c *stagger.Config) {
			// An address must recur more often than the window can hold:
			// coarse mode (p && !a) still fires, so instead force the
			// history to never call anything "address-varying" coarse by
			// promoting never and sizing PromThr out of reach; precise
			// stays available.
			c.PromThr = 1 << 30
			c.AddrThr = 0 // address patterns recur trivially: precise favored
		}},
		{"short-history", func(c *stagger.Config) { c.HistLen = 2 }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := stagger.DefaultConfig(stagger.ModeStaggeredHW)
				v.mutate(&cfg)
				res, err := harness.Run(harness.RunConfig{
					Benchmark: "list-hi", Mode: stagger.ModeStaggeredHW,
					Threads: harness.PaperThreads, Seed: benchSeed, Stagger: &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.VerifyErr != nil {
					b.Fatal(res.VerifyErr)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Makespan()), "makespan_cycles")
					b.ReportMetric(res.AbortsPerCommit(), "abts/commit")
				}
			}
		})
	}
}

// BenchmarkAblationLockTable sweeps the advisory lock table size on
// memcached: too few locks alias unrelated structures, too many is free.
func BenchmarkAblationLockTable(b *testing.B) {
	for _, locks := range []int{4, 16, 64, 256} {
		b.Run("locks_"+itoa(locks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := stagger.DefaultConfig(stagger.ModeStaggeredHW)
				cfg.NumLocks = locks
				res, err := harness.Run(harness.RunConfig{
					Benchmark: "memcached", Mode: stagger.ModeStaggeredHW,
					Threads: harness.PaperThreads, Seed: benchSeed, Stagger: &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Makespan()), "makespan_cycles")
				}
			}
		})
	}
}

// BenchmarkAblationThresholds sweeps PC_THR/ADDR_THR on memcached.
func BenchmarkAblationThresholds(b *testing.B) {
	for _, thr := range []int{1, 2, 4, 6} {
		b.Run("thr_"+itoa(thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := stagger.DefaultConfig(stagger.ModeStaggeredHW)
				cfg.PCThr, cfg.AddrThr = thr, thr
				res, err := harness.Run(harness.RunConfig{
					Benchmark: "memcached", Mode: stagger.ModeStaggeredHW,
					Threads: harness.PaperThreads, Seed: benchSeed, Stagger: &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Makespan()), "makespan_cycles")
					b.ReportMetric(res.AbortsPerCommit(), "abts/commit")
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
