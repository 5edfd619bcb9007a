package main

import (
	"fmt"
	"math"

	"repro/internal/workloads"
)

// The five workloads, and masks naming the workloads a metric is measured
// on. BENCHMARK.json lists metrics without saying where they apply; this
// file is where that is fixed.
const (
	wlPaper   = "paper"
	wlSeq     = "seq-t1"
	wlExplore = "explore-pct"
	wlCold    = "svc-cold"
	wlWarm    = "svc-warm"
)

type wlMask uint

const (
	onPaper wlMask = 1 << iota
	onSeq
	onExplore
	onCold
	onWarm
	onDirect = onPaper | onSeq | onExplore
	onSvc    = onCold | onWarm
	onAll    = onDirect | onSvc
)

var wlBits = map[string]wlMask{
	wlPaper: onPaper, wlSeq: onSeq, wlExplore: onExplore, wlCold: onCold, wlWarm: onWarm,
}

// metricDef is one line of BENCHMARK.json plus where the metric applies.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	On     wlMask
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them, with tracing off. What "job" means per workload is
// in README.md: the unit a caller waits for (a submitted job, one cell,
// one recorded schedule, one full cmd/paper sequence).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25, onAll},
	{"pass_s", "s", lower, 0.25, onAll},
	{"peak_rss_mb", "MB", lower, 0.20, onAll},
	{"job_ms_p50", "ms", lower, 0.25, onAll},
}

// beside are printed in the full report beside the listed metrics, on the
// workloads that have them; the driver never sees them. The three the
// issue wanted gated but that exist on some workloads only are here under
// their end-to-end names, and in perLayer under their layer's.
var beside = []metricDef{
	{"submit_ack_ms_p50", "ms", lower, 0, onSvc},
	{"fsyncs_per_job", "count", lower, 0, onSvc},
	{"stagger_gain_hmean", "ratio", higher, 0, onPaper},
	{"cells_per_s", "1/s", higher, 0, onSeq | onSvc},
	{"jobs_per_s", "1/s", higher, 0, onSvc},
	{"schedules_per_s", "1/s", higher, 0, onExplore},
	{"generators_per_s", "1/s", higher, 0, onPaper},
}

// unitOf finds a metric's unit wherever it is defined.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer, beside} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// notMeasured is printed for a per-layer metric on a workload whose trace
// does not exercise that layer. Every measured value is >= 0, so the
// sentinel cannot be mistaken for one.
const notMeasured = -1

// perLayer are the single-layer metrics a traced run produces, named
// after the package they price.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// htm: the simulator core.
		{"htm.events_per_s", "1/s", higher, 0, onDirect},
		{"htm.sim_cycles_per_s", "1/s", higher, 0, onDirect},
		{"htm.run_share", "ratio", higher, 0, onDirect},
		{"htm.new_us_per_cell", "us", lower, 0, onDirect},
		{"htm.keep_ns_per_event", "ns", lower, 0, onAll},
		{"htm.handoff_ns_per_event.c2", "ns", lower, 0, onAll},
		{"htm.handoff_ns_per_event.c4", "ns", lower, 0, onAll},
		{"htm.handoff_ns_per_event.c16", "ns", lower, 0, onAll},
		{"htm.mem_ns_per_event", "ns", lower, 0, onAll},
		{"htm.tx_ns_per_commit", "ns", lower, 0, onAll},
		{"htm.txstorm_ns_per_commit.c4", "ns", lower, 0, onAll},
		{"htm.commit_ratio", "ratio", higher, 0, onDirect},
		{"htm.l1_hit_ratio", "ratio", higher, 0, onDirect},
		{"htm.allocs_per_event_steady", "count", lower, 0, onAll},

		// stagger: the advisory-lock runtime.
		{"stagger.ns_per_alp", "ns", lower, 0, onAll},
		{"stagger.alp_visits", "count", lower, 0, onDirect},
		{"stagger.locks_acquired", "count", lower, 0, onDirect},
		{"stagger.lock_wait_cycle_share", "ratio", lower, 0, onDirect},
		{"stagger.gain_hmean_t16", "ratio", higher, 0, onPaper},

		// backend, backend/occ: seq-t1 split by concurrency control.
		{"backend.htm.ns_per_event", "ns", lower, 0, onPaper | onSeq},
		{"backend.staggered.ns_per_event", "ns", lower, 0, onDirect},
		{"backend.occ.ns_per_event", "ns", lower, 0, onSeq},
		{"occ.commit_ratio", "ratio", higher, 0, onSeq},

		// workloads, simds, anchor: per-cell fixed stages.
		{"workloads.get_us_per_cell", "us", lower, 0, onDirect},
		{"workloads.setup_us_per_cell", "us", lower, 0, onDirect},
		{"workloads.verify_us_per_cell", "us", lower, 0, onDirect},
		{"anchor.compile_us_per_cell", "us", lower, 0, onDirect},

		// oracle, sched: what exploration adds to a cell.
		{"oracle.overhead_ratio", "ratio", lower, 0, onExplore},
		{"oracle.commits", "count", higher, 0, onExplore},
		{"sched.overhead_ratio", "ratio", lower, 0, onExplore},
		{"sched.picks", "count", lower, 0, onExplore},

		// harness: per-cell fixed cost, sweep runner, table generators.
		{"harness.fixed_us_per_cell", "us", lower, 0, onDirect},
		{"harness.fixed_share", "ratio", lower, 0, onDirect},
		{"harness.allocs_per_cell", "count", lower, 0, onAll},
		{"harness.sweep_speedup", "ratio", higher, 0, onPaper},
		{"harness.gen_s.table1", "s", lower, 0, onPaper},
		{"harness.gen_s.table3", "s", lower, 0, onPaper},
		{"harness.gen_s.table4", "s", lower, 0, onPaper},
		{"harness.gen_s.figure7", "s", lower, 0, onPaper},
		{"harness.gen_s.figure8", "s", lower, 0, onPaper},
		{"harness.gen_s.claims", "s", lower, 0, onPaper},

		// obs: the report a computed cell is turned into.
		{"obs.snapshot_json_us_per_cell", "us", lower, 0, onDirect},
		{"obs.payload_bytes_per_cell", "bytes", lower, 0, onDirect},

		// service: admission, job table, HTTP.
		{"service.submit_ack_ms_p50", "ms", lower, 0, onSvc},
		{"service.submit_ack_ms_p95", "ms", lower, 0, onSvc},
		{"service.submit_inproc_ms_p50", "ms", lower, 0, onSvc},
		{"service.http_submit_overhead_ms", "ms", lower, 0, onSvc},
		{"service.job_ms_p95", "ms", lower, 0, onSvc},
		{"service.wait_ms_mean", "ms", lower, 0, onSvc},
		{"service.run_ms_mean", "ms", lower, 0, onSvc},
		{"service.result_fetch_ms_p50", "ms", lower, 0, onSvc},
		{"service.result_mb_per_s", "MB/s", higher, 0, onSvc},
		{"service.from_store_ratio", "ratio", higher, 0, onSvc},
		{"service.shed_count", "count", lower, 0, onSvc},
		{"service.boot_ms", "ms", lower, 0, onSvc},

		// journal, store, vfs: what durability costs.
		{"journal.append_us_p50", "us", lower, 0, onSvc},
		{"journal.append_us_p95", "us", lower, 0, onSvc},
		{"journal.appends_per_job", "count", lower, 0, onSvc},
		{"journal.bytes_per_job", "bytes", lower, 0, onSvc},
		{"store.put_us_p50", "us", lower, 0, onSvc},
		{"store.get_us_p50", "us", lower, 0, onSvc},
		{"store.puts_per_job", "count", lower, 0, onSvc},
		{"store.gets_per_job", "count", lower, 0, onSvc},
		{"store.hit_ratio", "ratio", higher, 0, onSvc},
		{"vfs.syncs_per_job", "count", lower, 0, onSvc},
		{"vfs.write_bytes_per_job", "bytes", lower, 0, onSvc},
		{"vfs.renames_per_job", "count", lower, 0, onSvc},
		{"vfs.real_sync_ms_p50", "ms", lower, 0, onSvc},
		{"vfs.op_time_share", "ratio", lower, 0, onSvc},

		// host: the machine and the Go runtime under the run.
		{"host.startup_ms", "ms", lower, 0, onAll},
		{"host.calib_ms_p50", "ms", lower, 0, onAll},
		{"host.calib_spread", "ratio", lower, 0, onAll},
		{"host.steal_share", "ratio", lower, 0, onAll},
		{"host.alloc_mb_per_pass", "MB", lower, 0, onAll},
		{"host.mallocs_per_pass", "count", lower, 0, onAll},
		{"host.gc_cpu_share", "ratio", lower, 0, onAll},
		{"host.tracing_overhead_ratio", "ratio", lower, 0, onAll},
	}
	// Per benchmark, at the paper's operating point: the modelled design's
	// gain (simulated, exact) and the simulator's cost (host).
	for _, b := range workloads.Names() {
		defs = append(defs,
			metricDef{"stagger." + b + ".gain_t16", "ratio", higher, 0, onPaper},
			metricDef{"workloads." + b + ".ns_per_event.t16", "ns", lower, 0, onPaper})
	}
	return defs
}

// sample is one measured metric: its value and how many observations
// stand behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// contractSample is a metric as the driver's result line carries it.
type contractSample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics lays the measured samples out as the driver's result
// line wants them: every listed metric, nothing unlisted. A metric that
// applies to the workload but was not measured is an error; one that does
// not apply is printed as notMeasured.
func contractMetrics(defs []metricDef, workload string, got map[string]sample) (map[string]contractSample, error) {
	out := make(map[string]contractSample, len(defs))
	for _, d := range defs {
		s, ok := got[d.Name]
		switch {
		case ok && (math.IsNaN(s.Value) || math.IsInf(s.Value, 0)):
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		case ok:
			out[d.Name] = contractSample{s.Value, d.Unit}
		case d.On&wlBits[workload] != 0:
			return nil, fmt.Errorf("metric %s applies to %s but was not measured", d.Name, workload)
		default:
			out[d.Name] = contractSample{notMeasured, d.Unit}
		}
	}
	return out, nil
}
