package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
)

// smokeRun runs one workload in-process at -smoke sizes and returns what
// the driver would be shown.
func smokeRun(t *testing.T, def workloadDef, trace bool) (report, *result) {
	t.Helper()
	r := newRun(def, 42, 10, trace, true, time.Now())
	r.outDir = t.TempDir()
	if trace {
		r.tr = newTracer()
	}
	rep, res := r.conclude(def.run(r))
	if res == nil {
		t.Fatalf("%s: run did not complete: %s", def.name, rep.Error)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d first=%q checks=%+v",
			def.name, res.Correct, res.Attempted, res.Failed, rep.FirstFail, rep.Checks)
	}
	return rep, res
}

// TestEveryListedMetricIsEmitted: on every workload, the result holds
// exactly the metrics BENCHMARK.json lists for that kind of run — each
// with its unit, finite, and measured wherever metrics.go says the metric
// applies — and nothing else.
func TestEveryListedMetricIsEmitted(t *testing.T) {
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			name := def.name + "/end_to_end"
			defs := endToEnd
			if trace {
				name, defs = def.name+"/per_layer", perLayer
			}
			t.Run(name, func(t *testing.T) {
				if def.name == wlPaper && testing.Short() {
					t.Skip("cmd/paper's sequence cannot be shrunk: ~6 s a pass")
				}
				rep, res := smokeRun(t, def, trace)
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result, %d listed", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s: listed, not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: %v", d.Name, m.Value)
					case d.On&wlBits[def.name] != 0 && m.Value == notMeasured:
						t.Errorf("%s: applies to %s, not measured", d.Name, def.name)
					case d.On&wlBits[def.name] == 0 && m.Value != notMeasured:
						t.Errorf("%s: does not apply to %s, yet reads %v", d.Name, def.name, m.Value)
					}
					if !trace && ok && m.Value <= 0 {
						t.Errorf("%s: end-to-end metrics must never be 0, got %v", d.Name, m.Value)
					}
				}
				for _, c := range rep.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if len(rep.Checks) == 0 {
					t.Error("a run must carry at least its sim_digest check")
				}
				if trace {
					if _, err := os.Stat(rep.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}

// TestStagedCellEqualsRun: the staged path is harness.RunCtx performed
// through public functions; for every backend the benchmark uses, and for
// an exploration cell, it must produce the statistics harness.Run does.
func TestStagedCellEqualsRun(t *testing.T) {
	cells := []harness.RunConfig{
		{Benchmark: "kmeans", Backend: "htm", Threads: 4, Seed: 7, TotalOps: 200},
		{Benchmark: "kmeans", Backend: "staggered", Threads: 4, Seed: 7, TotalOps: 200},
		{Benchmark: "kmeans", Backend: "occ", Threads: 4, Seed: 7, TotalOps: 200},
		{Benchmark: "list-hi", Backend: "staggered", Threads: 4, Seed: 0, TotalOps: 160,
			Sched: "pct:3", SchedSeed: 1_000_004, Record: true, Oracle: true, WatchdogTrace: 256},
	}
	for _, rc := range cells {
		st, err := stagedCell(newTracer(), rc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := harness.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		got := st.res
		if !reflect.DeepEqual(got.Stats, want.Stats) || got.Metrics != want.Metrics ||
			got.OracleCommits != want.OracleCommits || !reflect.DeepEqual(got.SchedPicks, want.SchedPicks) {
			t.Errorf("%s: staged cell differs from harness.Run\n got %+v\nwant %+v", cellName(rc), got.Stats.CoreStats, want.Stats.CoreStats)
		}
		if got.VerifyErr != nil || got.OracleErr != nil {
			t.Errorf("%s: verify %v, oracle %v", cellName(rc), got.VerifyErr, got.OracleErr)
		}
		if st.payloadBytes == 0 || st.runNS <= 0 || st.cellNS < st.runNS {
			t.Errorf("%s: payload %d bytes, run %d ns, cell %d ns", cellName(rc), st.payloadBytes, st.runNS, st.cellNS)
		}
	}
}

// TestPaperPassIsCmdPaper: one pass of the paper workload writes exactly
// the bytes `go run ./cmd/paper -workers 1 -seed 42` does.
func TestPaperPassIsCmdPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cmd/paper's whole sequence twice")
	}
	cmd := exec.Command("go", "run", "./cmd/paper", "-workers", "1", "-seed", "42")
	cmd.Dir = ".."
	cmd.Stderr = os.Stderr
	want, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(workloadDefs[0], 42, 10, false, true, time.Now())
	prePass()
	got, _, err := r.paperPass(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("paper pass wrote %d bytes, cmd/paper %d; first difference at byte %d", len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
