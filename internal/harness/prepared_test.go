package harness_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// runView is what a schedule's run shows its callers, component by
// component, so a mismatch names the component.
func runView(t *testing.T, res *harness.Result) [][2]string {
	t.Helper()
	metrics, err := json.Marshal(obs.Snapshot(res))
	if err != nil {
		t.Fatal(err)
	}
	return [][2]string{
		{"trace", htm.FormatTrace(res.Trace)},
		{"obs metrics JSON", string(metrics)},
		{"per-core stats", fmt.Sprintf("%+v", res.Stats.PerCore)},
		{"picks", fmt.Sprint(res.SchedPicks)},
		{"oracle commits", fmt.Sprint(res.OracleCommits)},
		{"oracle error", fmt.Sprint(res.OracleErr)},
		{"verify error", fmt.Sprint(res.VerifyErr)},
	}
}

// TestPreparedCellMatchesFreshRun: the schedules of a campaign share a
// workload instance, its compiled anchors, a machine, a pick buffer and a
// shadow memory, and nothing of one schedule may reach the next. For
// every workload on every registered backend, under a generative PCT and
// random scheduler and under a replayed pick sequence, the first, second
// and fifth schedule run on one prepared cell each equal harness.Run of
// the same configuration: the whole extended trace, the obs metrics
// report, per-core statistics, recorded picks and the oracle's and
// Verify's verdicts. A workload whose Setup left host-side state of the
// previous run in place, or a Reset that left simulated state, fails
// here. -short keeps three workloads.
func TestPreparedCellMatchesFreshRun(t *testing.T) {
	benches := workloads.Names()
	if testing.Short() {
		benches = []string{"list-hi", "intruder", "memcached"}
	}
	const schedules = 5
	for _, bench := range benches {
		for _, bk := range backend.Names() {
			base := harness.RunConfig{
				Benchmark: bench, Backend: bk, Threads: 4, Seed: 42, TotalOps: 120,
				Oracle: true, TraceN: -1, ExtTrace: true,
			}
			if bk == "limited" {
				base.Capacity = 8
			}
			t.Run(bench+"/"+bk, func(t *testing.T) {
				t.Parallel() // tsp is a fixed ~100 ms a run; the cells are independent
				// The replayed sequences are the ones the PCT schedules record.
				var recorded [schedules][]uint32
				for _, kind := range []string{"pct:3", "random", "replay"} {
					onPrepared, _ := harness.NewPreparedRunner()
					for i := 0; i < schedules; i++ {
						rc := base
						if kind == "replay" {
							rc.Sched = "pct:3"
							rc.ReplayPicks = recorded[i]
						} else {
							rc.Sched = kind
							rc.SchedSeed = int64(1000 + 17*i)
							rc.Record = true
						}
						got, err := onPrepared(rc)
						if err != nil {
							t.Fatalf("%s schedule %d on the prepared cell: %v", kind, i+1, err)
						}
						if kind == "pct:3" {
							if len(got.SchedPicks) == 0 {
								t.Fatalf("%s schedule %d recorded no picks", kind, i+1)
							}
							recorded[i] = got.SchedPicks
						}
						if i != 0 && i != 1 && i != schedules-1 {
							continue
						}
						want, err := harness.Run(rc)
						if err != nil {
							t.Fatalf("%s schedule %d on a fresh cell: %v", kind, i+1, err)
						}
						if want.OracleCommits == 0 {
							t.Fatalf("%s schedule %d: the oracle validated no commits", kind, i+1)
						}
						g, w := runView(t, got), runView(t, want)
						for k := range w {
							if g[k][1] != w[k][1] {
								t.Errorf("%s schedule %d: %s differs from a fresh run's (%d vs %d bytes)",
									kind, i+1, w[k][0], len(g[k][1]), len(w[k][1]))
							}
						}
					}
				}
			})
		}
	}
}
