package harness_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// TestCellKeyGolden pins the durable-store key of ten representative
// cells, byte for byte. Results already stored under these keys are
// found only while the keys stay the same: a reordered, renamed or
// retagged Cell field, or a changed default, orphans every stored result
// and must fail here (or come with a CacheSchema bump).
func TestCellKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		cell harness.Cell
		key  string
	}{
		{harness.Cell{Bench: "list-hi"},
			`v5|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":4,"seed":42,"ops":3200}`},
		{harness.Cell{Bench: "list-hi", Mode: "sw"},
			`v5|cell|{"bench":"list-hi","mode":"sw","backend":"staggered","threads":4,"seed":42,"ops":3200}`},
		{harness.Cell{Bench: "list-hi", Backend: "limited", Capacity: 8},
			`v5|cell|{"bench":"list-hi","mode":"staggered","backend":"limited","capacity":8,"threads":4,"seed":42,"ops":3200}`},
		{harness.Cell{Bench: "kmeans", Backend: "occ", Oracle: true, Lazy: true, Naive: true},
			`v5|cell|{"bench":"kmeans","mode":"htm","backend":"occ","threads":4,"seed":42,"ops":2048,"naive":true,"lazy":true,"oracle":true}`},
		{harness.Cell{Bench: "list-hi", Sched: "pct:3", SchedSeed: 7},
			`v5|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":4,"seed":42,"ops":3200,"sched":"pct:3","sched_seed":7}`},
		{harness.Cell{Bench: "vacation", Threads: 8, Sched: "random@8192"},
			`v5|cell|{"bench":"vacation","mode":"staggered","backend":"staggered","threads":8,"seed":42,"ops":2400,"sched":"random@8192"}`},
		{harness.Cell{Bench: "list-hi", ChaosRate: 0.01},
			`v5|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":4,"seed":42,"ops":3200,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`},
		{harness.Cell{Bench: "tsp", ChaosRate: 0.05, ChaosSeed: 9, Watchdog: 500000000},
			`v5|cell|{"bench":"tsp","mode":"staggered","backend":"staggered","threads":4,"seed":42,"ops":992,"chaos_rate":0.05,"chaos_seed":9,"watchdog":500000000}`},
		{harness.Cell{Bench: "intruder", Mode: "htm", Threads: 16, Seed: 7, Ops: 300},
			`v5|cell|{"bench":"intruder","mode":"htm","backend":"htm","threads":16,"seed":7,"ops":300}`},
		{harness.Cell{Bench: "memcached", Mode: "addronly", Threads: 2},
			`v5|cell|{"bench":"memcached","mode":"addronly","backend":"staggered","threads":2,"seed":42,"ops":3200}`},
	} {
		nc, _, err := tc.cell.Normalize()
		if err != nil {
			t.Fatalf("%+v: %v", tc.cell, err)
		}
		if got := nc.Key(); got != tc.key {
			t.Errorf("%+v keys as\n  %s\nwant\n  %s", tc.cell, got, tc.key)
		}
	}
}

// TestCellOfRoundTrip: for every configuration axis of the fingerprint
// corpus (plain, staggered, chaos, pct), encoding a cell and normalizing
// the encoding gives the simulation input the run path derives from the
// original, side channels aside.
func TestCellOfRoundTrip(t *testing.T) {
	for _, wl := range workloads.Names() {
		for v := range corpusVariants {
			rc := corpusCell(wl, 1337, 4, corpusOps(wl), v)
			want, err := harness.Normalized(rc)
			if err != nil {
				t.Fatal(err)
			}
			want.TraceN, want.ExtTrace = 0, false
			c, err := harness.CellOf(rc)
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, corpusVariants[v].name, err)
			}
			_, got, err := c.Normalize()
			if err != nil {
				t.Fatalf("%s/%s: %+v does not normalize: %v", wl, corpusVariants[v].name, c, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: the cell %+v lowers to\n  %+v\nwant\n  %+v", wl, corpusVariants[v].name, c, got, want)
			}
		}
	}
}

// TestCellOfRefusesOverrides: a RunConfig that a Cell cannot spell has no
// cell, and so no trace header either — rather than one that replays a
// different simulation.
func TestCellOfRefusesOverrides(t *testing.T) {
	base := harness.RunConfig{Benchmark: "list-hi", Threads: 4, Sched: "random"}
	mcfg := htm.DefaultConfig()
	scfg := stagger.DefaultConfig(stagger.ModeStaggeredHW)
	mixed := chaos.Scaled(0.01, 42)
	mixed.AbortRate = 0.05 // no longer one rate for every class
	for name, set := range map[string]func(*harness.RunConfig){
		"Machine":   func(rc *harness.RunConfig) { rc.Machine = &mcfg },
		"Stagger":   func(rc *harness.RunConfig) { rc.Stagger = &scfg },
		"fault mix": func(rc *harness.RunConfig) { rc.Chaos = &mixed },
	} {
		rc := base
		set(&rc)
		if c, err := harness.CellOf(rc); err == nil {
			t.Errorf("%s: CellOf encoded %+v", name, c)
		}
		if tr, err := harness.SchedTrace(rc, []uint32{1, 0}); err == nil || tr != nil {
			t.Errorf("%s: SchedTrace wrote a header for a cell with no encoding: %s", name, tr.Encode())
		}
	}
	// A Scaled fault mix is a cell; a disabled one is no fault at all.
	scaled := chaos.Scaled(0.01, 9)
	rc := base
	rc.Chaos = &scaled
	if c, err := harness.CellOf(rc); err != nil || c.ChaosRate != 0.01 || c.ChaosSeed != 9 {
		t.Errorf("CellOf(Scaled(0.01, 9)) = %+v, %v", c, err)
	}
	off := chaos.Config{Seed: 9}
	rc.Chaos = &off
	if c, err := harness.CellOf(rc); err != nil || c.ChaosRate != 0 || c.ChaosSeed != 0 {
		t.Errorf("CellOf(fault-free config) = %+v, %v", c, err)
	}
}

// TestDecodeTraceIsStrict: a trace cell with a field Cell does not know
// is refused, not replayed without it.
func TestDecodeTraceIsStrict(t *testing.T) {
	tr, err := harness.SchedTrace(harness.RunConfig{Benchmark: "list-hi", Threads: 4, Sched: "pct:3"}, []uint32{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	good := tr.Encode()
	if c, picks, err := harness.DecodeTrace(good); err != nil || c.Bench != "list-hi" || len(picks) != 2 {
		t.Fatalf("DecodeTrace(%q) = %+v, %v, %v", good, c, picks, err)
	}
	bad := strings.Replace(string(good), `"bench"`, `"hardened":true,"bench"`, 1)
	if _, _, err := harness.DecodeTrace([]byte(bad)); err == nil {
		t.Fatalf("DecodeTrace accepted an unknown cell field: %q", bad)
	}
}
