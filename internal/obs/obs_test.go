package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/stagger"
)

var update = flag.Bool("update", false, "rewrite golden files")

// obsConfig is the test cell: staggered mode so advisory-lock metrics
// and annotations are exercised, full extended trace capture.
func obsConfig(seed int64) harness.RunConfig {
	return harness.RunConfig{
		Benchmark: "list-hi",
		Mode:      stagger.ModeStaggeredHW,
		Threads:   8, // enough contention for the policy to deploy locks
		Seed:      seed,
		TotalOps:  800,
		TraceN:    -1,
	}
}

// exportRun produces the two observability artifacts for one config.
func exportRun(t *testing.T, rc harness.RunConfig) (metrics, trace []byte) {
	t.Helper()
	res, err := harness.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err = json.MarshalIndent(Snapshot(res), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	meta, err := TraceMetaOf(res.Config)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, meta, res.Trace); err != nil {
		t.Fatal(err)
	}
	return metrics, buf.Bytes()
}

// TestOutputsIdenticalAcrossWorkersAndRuns pins the determinism
// contract: metrics JSON and trace JSON are byte-identical between two
// runs of the same config, and between sweeps executed with 1 worker
// and 4 workers (parallelism exists only between runs, never inside
// one, so worker count must not leak into any output byte).
func TestOutputsIdenticalAcrossWorkersAndRuns(t *testing.T) {
	seeds := []int64{1, 7, 42}

	sweep := func(workers int) (metrics, traces [][]byte) {
		harness.ClearCache()
		prev := harness.SetWorkers(workers)
		defer harness.SetWorkers(prev)
		cfgs := make([]harness.RunConfig, len(seeds))
		for i, s := range seeds {
			cfgs[i] = obsConfig(s)
		}
		// Warm the sweep through RunAll so worker goroutines actually run
		// concurrently at workers > 1, then export each cell.
		for i, o := range harness.RunAll(context.Background(), cfgs, workers) {
			if o.Err != nil {
				t.Fatalf("seed %d: %v", seeds[i], o.Err)
			}
			m, err := json.MarshalIndent(Snapshot(o.Res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			meta, err := TraceMetaOf(o.Res.Config)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteTrace(&buf, meta, o.Res.Trace); err != nil {
				t.Fatal(err)
			}
			metrics = append(metrics, m)
			traces = append(traces, buf.Bytes())
		}
		return metrics, traces
	}

	m1, t1 := sweep(1)
	m4, t4 := sweep(4)
	m1b, t1b := sweep(1) // repeat at same seed: run-to-run identity
	for i, s := range seeds {
		if !bytes.Equal(m1[i], m4[i]) {
			t.Errorf("seed %d: metrics differ between -workers=1 and -workers=4", s)
		}
		if !bytes.Equal(t1[i], t4[i]) {
			t.Errorf("seed %d: trace differs between -workers=1 and -workers=4", s)
		}
		if !bytes.Equal(m1[i], m1b[i]) {
			t.Errorf("seed %d: metrics differ between two identical runs", s)
		}
		if !bytes.Equal(t1[i], t1b[i]) {
			t.Errorf("seed %d: trace differs between two identical runs", s)
		}
	}
}

// TestGoldenReport pins the exact metrics JSON for one cell. Any change
// to the report schema, sort orders, or the counters feeding it shows up
// as a byte diff here (regenerate with go test ./internal/obs -update).
func TestGoldenReport(t *testing.T) {
	metrics, _ := exportRun(t, obsConfig(42))
	golden := filepath.Join("testdata", "report-list-hi.json")
	if *update {
		if err := os.WriteFile(golden, metrics, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metrics, want) {
		t.Errorf("metrics JSON diverged from %s (rerun with -update if intended)\ngot:\n%s", golden, metrics)
	}
}

// TestTraceSchema validates the exported trace against the Chrome
// trace-event rules Perfetto relies on: required fields on every event,
// balanced B/E per thread, every async "b" closed by a matching
// cat+id "e", every flow "s" consumed by an "f", and run tags present.
func TestTraceSchema(t *testing.T) {
	_, trace := exportRun(t, obsConfig(42))

	var f struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(trace, &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	// Every cell field is a run tag under its cell name, zero values
	// included: a timeline says it was not lazy, not just what it was.
	want := map[string]string{"bench": "list-hi", "mode": "staggered", "backend": "staggered",
		"threads": "8", "seed": "42", "ops": "800", "lazy": "false", "naive": "false",
		"chaos_rate": "0", "chaos_seed": "0", "watchdog": "0", "sched": "", "oracle": "false"}
	for k, v := range want {
		if got, ok := f.OtherData[k]; !ok || got != v {
			t.Errorf("otherData[%q] = %q (present %v), want %q", k, got, ok, v)
		}
	}
	typ := reflect.TypeOf(harness.Cell{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if _, ok := f.OtherData[name]; !ok {
			t.Errorf("otherData has no tag for cell field %s (%q)", typ.Field(i).Name, name)
		}
	}

	depth := map[float64]int{}    // tid -> open B slices
	asyncOpen := map[string]int{} // cat+id -> open async intervals
	flows := map[string]int{}     // id -> starts minus finishes
	var txB, txE, lockB, lockE int
	for i, e := range f.TraceEvents {
		ph, _ := e["ph"].(string)
		if ph == "" {
			t.Fatalf("event %d: missing ph: %v", i, e)
		}
		if _, ok := e["name"].(string); !ok {
			t.Fatalf("event %d: missing name: %v", i, e)
		}
		for _, k := range []string{"ts", "pid", "tid"} {
			if _, ok := e[k].(float64); !ok {
				t.Fatalf("event %d: missing numeric %s: %v", i, k, e)
			}
		}
		tid := e["tid"].(float64)
		cat, _ := e["cat"].(string)
		id, _ := e["id"].(string)
		switch ph {
		case "B":
			depth[tid]++
			if cat == "tx" {
				txB++
			}
		case "E":
			depth[tid]--
			if depth[tid] < 0 {
				t.Fatalf("event %d: E without open B on tid %v", i, tid)
			}
			if cat == "tx" {
				txE++
			}
		case "b":
			asyncOpen[cat+"/"+id]++
			lockB++
		case "e":
			key := cat + "/" + id
			asyncOpen[key]--
			if asyncOpen[key] < 0 {
				t.Fatalf("event %d: async e without open b for %s", i, key)
			}
			lockE++
		case "s":
			flows[id]++
		case "f":
			flows[id]--
			if flows[id] < 0 {
				t.Fatalf("event %d: flow f before s for id %s", i, id)
			}
		case "M":
			// metadata carries only name/args
		default:
			t.Fatalf("event %d: unexpected phase %q", i, ph)
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("tid %v: %d unclosed B slices", tid, d)
		}
	}
	for key, n := range asyncOpen {
		if n != 0 {
			t.Errorf("async interval %s: %d unclosed", key, n)
		}
	}
	for id, n := range flows {
		if n != 0 {
			t.Errorf("flow %s: unbalanced by %d", id, n)
		}
	}
	if txB == 0 || txB != txE {
		t.Errorf("tx slices unbalanced: %d B vs %d E", txB, txE)
	}
	if lockB == 0 {
		t.Error("no advisory-lock holding intervals exported (a traced run records them)")
	}
	if lockB != lockE {
		t.Errorf("lock intervals unbalanced: %d b vs %d e", lockB, lockE)
	}
}

// TestTraceTruncatedHoldsClosed exports a bounded trace that cuts off
// while locks are held and checks every async interval still closes.
func TestTraceTruncatedHoldsClosed(t *testing.T) {
	rc := obsConfig(42)
	rc.TraceN = 50 // cut mid-run
	res, err := harness.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, TraceMeta{Cell: harness.Cell{Bench: rc.Benchmark}}, res.Trace); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	open := map[string]int{}
	for _, e := range f.TraceEvents {
		ph, _ := e["ph"].(string)
		id, _ := e["id"].(string)
		switch ph {
		case "b":
			open[id]++
		case "e":
			open[id]--
		}
	}
	for id, n := range open {
		if n != 0 {
			t.Errorf("interval %s left open in truncated trace", id)
		}
	}
}

// TestMarkdownRendersEverySection smoke-tests the renderer against a
// real report: all section headers present, no stray formatting verbs.
func TestMarkdownRendersEverySection(t *testing.T) {
	res, err := harness.Run(obsConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, Snapshot(res)); err != nil {
		t.Fatal(err)
	}
	md := buf.String()
	for _, want := range []string{
		"## Run report:", "### Cycle breakdown", "### Aborts by cause",
		"### Per atomic block", "### Conflict attribution", "### Advisory locks",
		"speculative useful", "advisory-lock wait",
	} {
		if !bytes.Contains([]byte(md), []byte(want)) {
			t.Errorf("markdown missing %q", want)
		}
	}
	if bytes.Contains([]byte(md), []byte("%!")) {
		t.Error("markdown contains a botched format verb")
	}
}

// TestSnapshotReconciles checks the per-site cycle attribution sums back
// to the machine-wide breakdown (the same totals seen from two angles),
// within nothing: the deltas are exact, so equality is exact.
func TestSnapshotReconciles(t *testing.T) {
	res, err := harness.Run(obsConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	rep := Snapshot(res)

	var siteUseful, siteWasted, siteLockWait uint64
	for _, s := range rep.Sites {
		siteUseful += s.Cycles.Useful
		siteWasted += s.Cycles.Wasted
		siteLockWait += s.Cycles.LockWait
	}
	if siteUseful != rep.Cycles.Useful {
		t.Errorf("per-site useful %d != machine useful %d", siteUseful, rep.Cycles.Useful)
	}
	if siteWasted != rep.Cycles.Wasted {
		t.Errorf("per-site wasted %d != machine wasted %d", siteWasted, rep.Cycles.Wasted)
	}
	if siteLockWait != rep.Cycles.LockWait {
		t.Errorf("per-site lock wait %d != machine lock wait %d", siteLockWait, rep.Cycles.LockWait)
	}

	var perCore uint64
	for _, c := range rep.PerCore {
		perCore += c.Cycles.Useful
	}
	if perCore != rep.Cycles.Useful {
		t.Errorf("per-core useful %d != machine useful %d", perCore, rep.Cycles.Useful)
	}

	if rep.Locks.Acquired == 0 {
		t.Error("staggered run acquired no advisory locks")
	}
	if rep.Locks.HoldCycles == 0 {
		t.Error("no lock hold cycles recorded")
	}
	var siteLocks uint64
	for _, s := range rep.Sites {
		siteLocks += s.Locks
	}
	if siteLocks != rep.Locks.Acquired {
		t.Errorf("per-site locks %d != total acquired %d", siteLocks, rep.Locks.Acquired)
	}
}

// TestAnchorDescriptions checks conflict histogram entries resolve to
// readable anchor descriptions (function names, not "?") when the
// compiled module is present.
func TestAnchorDescriptions(t *testing.T) {
	res, err := harness.Run(obsConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	rep := Snapshot(res)
	if len(rep.ConfPCs) == 0 {
		t.Skip("run produced no conflict aborts")
	}
	for _, p := range rep.ConfPCs {
		if p.Where == "?" {
			t.Errorf("site %d unresolved despite compiled module", p.Site)
		}
		if p.PC == "0x0" {
			t.Errorf("site %d has zero PC", p.Site)
		}
	}
}
