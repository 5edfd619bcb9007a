package main

import (
	"bytes"
	"fmt"

	"repro/internal/harness"
	"repro/internal/obs"
)

// generateAppendix renders the abort-attribution appendix from the runs
// behind EXPERIMENTS.md Table 1 (baseline HTM at 16 threads, default
// operation counts, seed 42 — harness owns the list, so the attribution
// matches the table it annotates): a per-workload cycle-breakdown table
// and the top conflicting anchors per workload.
func generateAppendix() ([]byte, error) {
	const topN = 3
	runs, err := harness.Table1Runs(harness.DefaultSeed)
	if err != nil {
		return nil, err
	}
	reps := make([]*obs.Report, len(runs))
	for i, res := range runs {
		reps[i] = obs.Snapshot(res)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "\nEvery number in this appendix regenerates deterministically from the\n")
	fmt.Fprintf(&b, "Table 1 cells (baseline HTM, 16 threads, seed 42) via\n")
	fmt.Fprintf(&b, "`go run ./cmd/staggerreport -write`; `make docs-verify` fails CI when\n")
	fmt.Fprintf(&b, "this text and the simulator disagree. The same data for any single run\n")
	fmt.Fprintf(&b, "is available as JSON from `staggersim -metrics`.\n\n")

	fmt.Fprintf(&b, "### Cycle breakdown per workload\n\n")
	fmt.Fprintf(&b, "Cycles across all 16 cores; percentages are of summed per-core final\n")
	fmt.Fprintf(&b, "clocks. NT-overhead (advisory-lock traffic inside attempts) is zero\n")
	fmt.Fprintf(&b, "here because baseline HTM takes no advisory locks — compare the same\n")
	fmt.Fprintf(&b, "cells under `-mode staggered` to see it appear.\n\n")
	fmt.Fprintf(&b, "| Benchmark | useful | wasted | lock-wait | backoff | global-wait | NT-ovh | W/U |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, rep := range reps {
		var total uint64
		for _, pc := range rep.PerCore {
			total += pc.FinalClock
		}
		pct := func(v uint64) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%d (%.0f%%)", v, 100*float64(v)/float64(total))
		}
		c := rep.Cycles
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %d | %.2f |\n",
			rep.Benchmark, pct(c.Useful), pct(c.Wasted), pct(c.LockWait),
			pct(c.Backoff), pct(c.GlobalWait), c.NTOverhead, rep.WastedOverUseful)
	}

	fmt.Fprintf(&b, "\n### Top-%d conflicting anchors per workload\n\n", topN)
	fmt.Fprintf(&b, "The static sites whose cache lines killed the most transactions — the\n")
	fmt.Fprintf(&b, "`conflicting_anchors` histogram behind Table 1's LP column (an LP of Y\n")
	fmt.Fprintf(&b, "means one of these dominates its workload's conflicts).\n\n")
	fmt.Fprintf(&b, "| Benchmark | anchor | where | conflict aborts |\n")
	fmt.Fprintf(&b, "|---|---|---|---:|\n")
	for _, rep := range reps {
		pcs := rep.ConfPCs
		if len(pcs) > topN {
			pcs = pcs[:topN]
		}
		if len(pcs) == 0 {
			fmt.Fprintf(&b, "| %s | — | no conflict aborts | 0 |\n", rep.Benchmark)
			continue
		}
		for j, p := range pcs {
			name := rep.Benchmark
			if j > 0 {
				name = ""
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %d |\n", name, p.PC, p.Where, p.Aborts)
		}
	}
	return b.Bytes(), nil
}
