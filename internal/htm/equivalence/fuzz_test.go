package equivalence

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// FuzzEngineEquivalence explores whole experiment cells: the fuzzer
// picks a workload, seed, variant, and thread count, and the cell must
// pass the serializability oracle and the workload's own verification,
// and replaying its recorded schedule (or, without a scheduler, running
// it again) must reproduce its observables byte for byte. The seed corpus
// enumerates the configurations the paper table generators sweep (Table
// 1's benchmarks at one and many threads, each suite variant), so
// minimized counterexamples land in the same cell space the experiments
// use.
func FuzzEngineEquivalence(f *testing.F) {
	// Table 1's row order (the paper's six representative benchmarks),
	// at sequential and contended thread counts — the exact cells the
	// table generators warm first.
	names := workloads.Names()
	idx := make(map[string]uint8, len(names))
	for i, n := range names {
		idx[n] = uint8(i)
	}
	for _, bench := range []string{"list-hi", "tsp", "memcached", "intruder", "kmeans", "vacation"} {
		f.Add(idx[bench], int64(42), uint8(0), uint8(0))
		f.Add(idx[bench], int64(42), uint8(0), uint8(3))
	}
	// Each variant once on the highest-contention benchmark.
	for v := range Variants() {
		f.Add(uint8(0), int64(1), uint8(v), uint8(4))
	}
	f.Fuzz(func(t *testing.T, benchRaw uint8, seed int64, variantRaw uint8, threadsRaw uint8) {
		names := workloads.Names()
		bench := names[int(benchRaw)%len(names)]
		vs := Variants()
		v := vs[int(variantRaw)%len(vs)]
		threads := 1 + int(threadsRaw)%4
		if seed == 0 {
			seed = 42
		}
		ops := suiteOps(bench)
		if ops > 64 {
			ops = 64 // fuzz iterations stay fast; the suite covers depth
		}
		name := fmt.Sprintf("fuzz-%s-seed%d-%s-t%d", bench, seed, v.Name, threads)
		rec, replay, err := RecordReplay(Cell(bench, seed, threads, ops, v))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(rec.Oracle, "ok ") || rec.Verify != "ok" {
			t.Fatalf("%s: oracle %q, verify %q", name, rec.Oracle, rec.Verify)
		}
		if got, want := replay.Line(name), rec.Line(name); got != want {
			t.Fatalf("replay diverges from the recording\n got: %s\nwant: %s", got, want)
		}
	})
}
