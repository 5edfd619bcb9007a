package main

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// generateBackendArena simulates every registered concurrency-control
// backend over every workload (4 threads, default operation counts,
// seed 42, serializability oracle on) and renders the cross-backend
// comparison: throughput, abort rate, and wasted cycles per cell. One
// table per workload keeps backends adjacent, which is the comparison
// the arena exists for.
func generateBackendArena() ([]byte, error) {
	names := backend.Names()
	benches := workloads.Names()
	cfgs := make([]harness.RunConfig, 0, len(names)*len(benches))
	for _, bench := range benches {
		for _, bk := range names {
			cfgs = append(cfgs, harness.RunConfig{
				Benchmark: bench, Backend: bk, Threads: 4, Oracle: true,
			})
		}
	}
	reps := make([]*obs.Report, len(cfgs))
	for i, o := range harness.RunAll(context.Background(), cfgs, 0) {
		if o.Err != nil {
			return nil, fmt.Errorf("%s/%s: %w", cfgs[i].Benchmark, cfgs[i].Backend, o.Err)
		}
		if o.Res.VerifyErr != nil {
			return nil, fmt.Errorf("%s/%s: verify: %w", cfgs[i].Benchmark, cfgs[i].Backend, o.Res.VerifyErr)
		}
		if o.Res.OracleErr != nil {
			return nil, fmt.Errorf("%s/%s: oracle: %w", cfgs[i].Benchmark, cfgs[i].Backend, o.Res.OracleErr)
		}
		reps[i] = obs.Snapshot(o.Res)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "\nEvery registered backend, every workload: 4 threads, default\n")
	fmt.Fprintf(&b, "operation counts, seed 42, serializability oracle on (a cell only\n")
	fmt.Fprintf(&b, "renders if its history serializes and the workload invariants hold).\n")
	fmt.Fprintf(&b, "Regenerate with `go run ./cmd/staggerreport -write`; `make\n")
	fmt.Fprintf(&b, "docs-verify` fails CI when this text and the simulator disagree.\n")
	fmt.Fprintf(&b, "Throughput is commits per million simulated cycles — comparable\n")
	fmt.Fprintf(&b, "across backends because every backend runs the same workload IR on\n")
	fmt.Fprintf(&b, "the same simulated machine. The registered backends:\n\n")
	for _, line := range backend.Summaries() {
		fmt.Fprintf(&b, "- %s\n", line)
	}

	for bi, bench := range benches {
		fmt.Fprintf(&b, "\n#### %s\n\n", bench)
		fmt.Fprintf(&b, "| Backend | makespan | commits/Mcycle | aborts/commit | wasted cycles | W/U |\n")
		fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|\n")
		for ni := range names {
			rep := reps[bi*len(names)+ni]
			tput := 0.0
			if rep.Makespan > 0 {
				tput = float64(rep.Commits) / (float64(rep.Makespan) / 1e6)
			}
			fmt.Fprintf(&b, "| %s | %d | %.1f | %.2f | %d | %.2f |\n",
				names[ni], rep.Makespan, tput, rep.AbortsPerCommit,
				rep.Cycles.Wasted, rep.WastedOverUseful)
		}
	}
	return b.Bytes(), nil
}
