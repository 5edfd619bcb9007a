package main

import (
	"fmt"
	"reflect"
	"runtime"

	"repro/internal/harness"
	"repro/internal/htm"
)

// cellAgg sums what a traced pass's staged cells produced, so the
// per-layer metrics are ratios of totals rather than means of ratios.
type cellAgg struct {
	cells                  int
	runNS, cellNS          int64
	events, makespan       uint64
	commits, aborts        uint64
	l1Hits, accesses       uint64
	payloadBytes           int
	alpVisits, locks       uint64
	lockWait, stagCycles   uint64
	backendNS              map[string]int64
	backendEvents          map[string]uint64
	occCommits, occAborts  uint64
	staggeredCells, occCnt int
}

func (a *cellAgg) add(rc harness.RunConfig, st staged) {
	s := &st.res.Stats
	a.cells++
	a.runNS += st.runNS
	a.cellNS += st.cellNS
	a.events += events(s)
	a.makespan += s.Makespan
	a.commits += s.Commits
	a.aborts += s.TotalAborts()
	a.l1Hits += s.L1Hits
	a.accesses += s.L1Hits + s.L2Hits + s.L3Hits + s.MemAccesses
	a.payloadBytes += st.payloadBytes
	if a.backendNS == nil {
		a.backendNS, a.backendEvents = map[string]int64{}, map[string]uint64{}
	}
	a.backendNS[rc.Backend] += st.runNS
	a.backendEvents[rc.Backend] += events(s)
	switch rc.Backend {
	case "staggered":
		a.staggeredCells++
		a.alpVisits += st.res.Metrics.ALPVisits
		a.locks += st.res.Metrics.LocksAcquired
		a.lockWait += s.WaitCycles[htm.WaitLock]
		for i := range s.PerCore {
			a.stagCycles += s.PerCore[i].FinalClock
		}
	case "occ":
		a.occCnt++
		a.occCommits += s.Commits
		a.occAborts += s.TotalAborts()
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report turns the totals and the trace's per-stage spans into the
// per-layer metrics of the direct workloads.
func (a *cellAgg) report(r *run) {
	n := a.cells
	runS := float64(a.runNS) / 1e9
	r.set("htm.events_per_s", ratio(float64(a.events), runS), n)
	r.set("htm.sim_cycles_per_s", ratio(float64(a.makespan), runS), n)
	r.set("htm.run_share", ratio(float64(a.runNS), float64(a.cellNS)), n)
	r.set("htm.commit_ratio", ratio(float64(a.commits), float64(a.commits+a.aborts)), n)
	r.set("htm.l1_hit_ratio", ratio(float64(a.l1Hits), float64(a.accesses)), n)
	r.set("harness.fixed_us_per_cell", float64(a.cellNS-a.runNS)/1e3/float64(n), n)
	r.set("harness.fixed_share", 1-ratio(float64(a.runNS), float64(a.cellNS)), n)
	r.set("obs.payload_bytes_per_cell", float64(a.payloadBytes)/float64(n), n)

	r.set("stagger.alp_visits", float64(a.alpVisits), a.staggeredCells)
	r.set("stagger.locks_acquired", float64(a.locks), a.staggeredCells)
	r.set("stagger.lock_wait_cycle_share", ratio(float64(a.lockWait), float64(a.stagCycles)), a.staggeredCells)
	for bk, ns := range a.backendNS {
		r.set("backend."+bk+".ns_per_event", ratio(float64(ns), float64(a.backendEvents[bk])), n)
	}
	if a.occCnt > 0 {
		r.set("occ.commit_ratio", ratio(float64(a.occCommits), float64(a.occCommits+a.occAborts)), a.occCnt)
	}

	totals := r.tr.totals()
	for span, metric := range map[string]string{
		"htm.new":           "htm.new_us_per_cell",
		"workloads.get":     "workloads.get_us_per_cell",
		"workloads.setup":   "workloads.setup_us_per_cell",
		"workloads.verify":  "workloads.verify_us_per_cell",
		"anchor.compile":    "anchor.compile_us_per_cell",
		"obs.snapshot_json": "obs.snapshot_json_us_per_cell",
	} {
		if t := totals[span]; t != nil {
			r.set(metric, float64(t.DurNS)/1e3/float64(t.Count), t.Count)
		}
	}
}

// checkCoverage requires the stage spans to account for the cell spans:
// whatever a cell spends outside every stage is time no layer owns.
func (r *run) checkCoverage() {
	t := r.tr.totals()["cell"]
	if t == nil {
		r.check("trace_coverage", false, "no cell spans")
		return
	}
	uncovered := ratio(float64(t.SelfNS), float64(t.DurNS))
	r.check("trace_coverage", uncovered <= 0.02, "%.2f%% of %d cell spans lies outside every stage span", uncovered*100, t.Count)
}

// stagedEqualsRun re-runs staged cells through harness.Run and compares
// the full htm.Stats, which guards the staged path against drifting from
// RunCtx.
func (r *run) stagedEqualsRun(cells []staged) error {
	equal := true
	for _, st := range cells {
		res, err := harness.Run(st.res.Config)
		r.op(cellErr(staged{res: res}, err))
		if err != nil {
			return err
		}
		equal = equal && reflect.DeepEqual(res.Stats, st.res.Stats)
	}
	r.check("staged_equals_run", equal, "htm.Stats of %d staged cells against harness.Run", len(cells))
	return nil
}

// probeCell is the cell the differential probes run: contended enough
// that the engine hands off, small enough to repeat.
func (r *run) probeCell() harness.RunConfig {
	return harness.RunConfig{Benchmark: "list-hi", Threads: 4, Seed: r.seed}
}

// probes are the measurements every traced run makes whatever its
// workload: the peel kernels on htm's public API, the allocation slope
// between one cell at ops and 4x ops, and the stagger runtime's cost per
// ALP from a one-thread cell run with and without it.
func (r *run) probes() error {
	sz := r.sz
	keep := keepKernel(sz.kernelN)
	r.set("htm.keep_ns_per_event", keep, sz.kernelN)
	for _, c := range []int{2, 4, 16} {
		r.set(fmt.Sprintf("htm.handoff_ns_per_event.c%d", c), handoffKernel(c, sz.handoffN), sz.handoffN)
	}
	r.set("htm.mem_ns_per_event", memKernel(sz.kernelN)-keep, sz.kernelN)
	r.set("htm.tx_ns_per_commit", txKernel(sz.txN), sz.txN)
	r.set("htm.txstorm_ns_per_commit.c4", txStormKernel(4, sz.txN), sz.txN)

	// Mallocs at ops and at 4x ops: the slope is steady-state allocation
	// per event, the intercept is what building a cell allocates.
	mallocs := func(ops int) (m, ev float64, err error) {
		rc := r.probeCell()
		rc.Backend, rc.TotalOps = "staggered", ops
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := harness.Run(rc)
		runtime.ReadMemStats(&after)
		r.op(cellErr(staged{res: res}, err))
		if err != nil {
			return 0, 0, err
		}
		return float64(after.Mallocs - before.Mallocs), float64(events(&res.Stats)), nil
	}
	if _, _, err := mallocs(400); err != nil { // first use allocates lazily initialised state
		return err
	}
	m1, e1, err := mallocs(400)
	if err != nil {
		return err
	}
	m4, e4, err := mallocs(1600)
	if err != nil {
		return err
	}
	slope := ratio(m4-m1, e4-e1)
	r.set("htm.allocs_per_event_steady", slope, 2)
	r.set("harness.allocs_per_cell", m1-slope*e1, 2)

	// One thread, so no handoffs and no conflicts: what staggered costs
	// over htm is the ALP instrumentation alone.
	var perALP []float64
	for i := 0; i < 5; i++ {
		var ns [2]int64
		var visits uint64
		for k, bk := range []string{"htm", "staggered"} {
			rc := r.probeCell()
			rc.Backend, rc.Threads = bk, 1
			st, err := stagedCell(nil, rc)
			r.op(cellErr(st, err))
			if err != nil {
				return err
			}
			ns[k], visits = st.runNS, st.res.Metrics.ALPVisits
		}
		perALP = append(perALP, ratio(float64(ns[1]-ns[0]), float64(visits)))
	}
	r.set("stagger.ns_per_alp", median(perALP), len(perALP))
	return nil
}
