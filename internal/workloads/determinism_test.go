package workloads_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/anchor"
	"repro/internal/harness"
	"repro/internal/prog"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// dumpAll concatenates the Figure-3 dump of every atomic block.
func dumpAll(mod *prog.Module) string {
	c := anchor.Compile(mod, anchor.DefaultOptions())
	var sb strings.Builder
	for _, ab := range mod.Atomics {
		sb.WriteString(c.Dump(ab))
	}
	return sb.String()
}

// TestReplayBitIdentical is the replay regression for the engine-seeded
// randomness rule: running any workload twice under the same (config,
// seed) must reproduce the run bit-for-bit — statistics, runtime
// metrics, and the transaction trace. A single wall-clock read or
// global-rand draw anywhere in the simulated path would break this
// immediately.
func TestReplayBitIdentical(t *testing.T) {
	for _, name := range workloads.Names() {
		rc := harness.RunConfig{
			Benchmark: name,
			Mode:      stagger.ModeStaggeredHW,
			Threads:   4,
			Seed:      99,
			TotalOps:  160,
			TraceN:    4096,
		}
		a, err := harness.Run(rc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := harness.Run(rc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Errorf("%s: stats differ across identical runs:\n%+v\n%+v", name, a.Stats, b.Stats)
		}
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("%s: runtime metrics differ across identical runs", name)
		}
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Errorf("%s: transaction traces differ across identical runs", name)
		}
	}
}

// TestAnchorDumpRebuildStable locks the emission order of the anchor
// tables within one process: building a workload's IR from scratch twice
// and compiling both must print byte-identical Figure-3 dumps. Together
// with the golden files (which pin the dump across processes and so
// across map seeds), this is the regression net for map-iteration-order
// leaks in DSA node numbering and table emission.
func TestAnchorDumpRebuildStable(t *testing.T) {
	for _, name := range workloads.Names() {
		w1, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		d1 := dumpAll(w1.Mod)
		d2 := dumpAll(w2.Mod)
		if d1 != d2 {
			t.Errorf("%s: rebuilt anchor tables dump differently:\n--- first ---\n%s\n--- second ---\n%s",
				name, d1, d2)
		}
	}
}
