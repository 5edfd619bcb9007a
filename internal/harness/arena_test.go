package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// TestArenaAllBackendsAllWorkloads is the arena's acceptance gate: every
// registered backend runs every workload under the serializability
// oracle, for two seeds, and must produce a clean verdict plus a sane
// result. A new backend registered without passing this table is broken
// by definition.
func TestArenaAllBackendsAllWorkloads(t *testing.T) {
	for _, bk := range backend.Names() {
		for _, wl := range workloads.Names() {
			for _, seed := range []int64{3, 17} {
				bk, wl, seed := bk, wl, seed
				t.Run(bk+"/"+wl+"/seed"+string(rune('0'+seed%10)), func(t *testing.T) {
					t.Parallel()
					res, err := Run(RunConfig{
						Benchmark: wl, Backend: bk, Threads: 4,
						Seed: seed, TotalOps: 120, Oracle: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.VerifyErr != nil {
						t.Fatalf("verify: %v", res.VerifyErr)
					}
					if res.OracleErr != nil {
						t.Fatalf("oracle: %v", res.OracleErr)
					}
					if res.OracleCommits == 0 || res.Stats.Commits == 0 {
						t.Fatal("no commits validated")
					}
					if res.Makespan() == 0 {
						t.Fatal("zero makespan")
					}
				})
			}
		}
	}
}

// TestArenaUnknownBackend pins the contract that a bad backend name
// fails fast with the list of registered names, so a typo at any layer
// (flag, job spec, config file) is self-diagnosing.
func TestArenaUnknownBackend(t *testing.T) {
	_, err := Run(RunConfig{Benchmark: "kmeans", Backend: "bogus", Threads: 1})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, want := range backend.Names() {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list registered backend %q", err, want)
		}
	}
}

// TestLimitedCapacityKnob checks the limited backend's speculative
// line-capacity model: a tiny capacity must force capacity overflows
// (the paper's limited read/write-set HTM failure mode) while the runs
// stay serializable, and raising the capacity must make the pressure
// disappear.
func TestLimitedCapacityKnob(t *testing.T) {
	run := func(capacity int) *Result {
		t.Helper()
		res, err := Run(RunConfig{
			Benchmark: "vacation", Backend: "limited", Capacity: capacity,
			Threads: 4, Seed: 7, TotalOps: 120, Oracle: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.VerifyErr != nil {
			t.Fatalf("capacity %d: verify: %v", capacity, res.VerifyErr)
		}
		if res.OracleErr != nil {
			t.Fatalf("capacity %d: oracle: %v", capacity, res.OracleErr)
		}
		return res
	}
	tiny := run(2)
	if n := tiny.Stats.Aborts[htm.AbortOverflow]; n == 0 {
		t.Fatal("capacity 2 produced no overflow aborts")
	}
	big := run(4096)
	if n := big.Stats.Aborts[htm.AbortOverflow]; n != 0 {
		t.Fatalf("capacity 4096 still overflowed %d times", n)
	}
}

// TestArenaEngineEquivalence extends the engine's schedule checks to the
// arena backends. The software OCC runtime must be bit-identical when its
// default order is spelled through the scheduler (an empty replay decides
// every event by the candidate scan instead of the keep test), and the
// limited HTM variant must repeat itself exactly on a second run.
func TestArenaEngineEquivalence(t *testing.T) {
	run := func(bk string, replay []uint32) htm.Stats {
		t.Helper()
		res, err := Run(RunConfig{
			Benchmark: "intruder", Backend: bk, Threads: 4,
			Seed: 11, TotalOps: 150, ReplayPicks: replay,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Host-side scheduling counts differ between the two spellings;
		// everything simulated must agree.
		res.Stats.Engine = htm.EngineStats{}
		return res.Stats
	}
	if keep, scan := run("occ", nil), run("occ", []uint32{}); !reflect.DeepEqual(keep, scan) {
		t.Fatalf("occ: keep and scan diverged:\nkeep %+v\nscan %+v", keep, scan)
	}
	if a, b := run("limited", nil), run("limited", nil); !reflect.DeepEqual(a, b) {
		t.Fatalf("limited: two runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestArenaCacheSeparation pins one simulation to one memo entry and
// distinct simulations to distinct ones: every spelling of the plain-HTM
// cell shares an entry, while cells that differ in backend (or, on the
// limited backend, in capacity) never do.
func TestArenaCacheSeparation(t *testing.T) {
	ClearCache()
	defer ClearCache()
	base := RunConfig{Benchmark: "kmeans", Threads: 2, Seed: 5, TotalOps: 100}
	run := func(edit func(*RunConfig)) *Result {
		t.Helper()
		rc := base
		edit(&rc)
		res, err := RunCached(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	byMode := run(func(rc *RunConfig) { rc.Mode = stagger.ModeHTM })
	for name, edit := range map[string]func(*RunConfig){
		"backend=htm":                func(rc *RunConfig) { rc.Backend = "htm" },
		"backend=htm mode=Staggered": func(rc *RunConfig) { rc.Backend, rc.Mode = "htm", stagger.ModeStaggeredHW },
		"backend=htm capacity=8":     func(rc *RunConfig) { rc.Backend, rc.Capacity = "htm", 8 },
	} {
		if run(edit) != byMode {
			t.Fatalf("%s did not share the plain-HTM cell's memo entry", name)
		}
	}
	staggered := run(func(rc *RunConfig) { rc.Mode = stagger.ModeStaggeredHW })
	if run(func(rc *RunConfig) { rc.Backend = "staggered" }) != staggered {
		t.Fatal("backend=staggered did not share the Staggered mode's memo entry")
	}
	occ := run(func(rc *RunConfig) { rc.Backend = "occ" })
	if occ == byMode || occ == staggered {
		t.Fatal("backend=occ shared a cache entry")
	}
	a := run(func(rc *RunConfig) { rc.Backend, rc.Capacity = "limited", 8 })
	b := run(func(rc *RunConfig) { rc.Backend, rc.Capacity = "limited", 16 })
	if a == b || a == byMode {
		t.Fatal("distinct capacities shared a cache entry")
	}
}

// TestRunConfigFieldsKeyedOrUncacheable fails when a RunConfig field is
// added without deciding what it means for memoization: every field must
// either be in uncacheable (its non-zero value bypasses the memo) or be
// encoded by its Cell, so that setting it changes the memo key. A field
// that is neither would let two different simulations share a result —
// and would drop out of the store key and the replay-trace header too.
func TestRunConfigFieldsKeyedOrUncacheable(t *testing.T) {
	skip := map[string]bool{}
	for _, f := range uncacheable {
		skip[f] = true
	}
	keyOf := func(rc RunConfig) string {
		c, err := CellOf(rc)
		if err != nil {
			t.Fatal(err)
		}
		return c.Key()
	}
	base := keyOf(RunConfig{})
	typ := reflect.TypeOf(RunConfig{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if skip[name] {
			delete(skip, name)
			continue
		}
		var rc RunConfig
		f := reflect.ValueOf(&rc).Elem().Field(i)
		switch {
		case f.Kind() == reflect.String:
			f.SetString("x")
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanInt():
			f.SetInt(3)
		case f.CanUint():
			f.SetUint(3)
		default:
			t.Errorf("RunConfig.%s (%s) is not in uncacheable and a Cell cannot spell it", name, f.Type())
			continue
		}
		if keyOf(rc) == base {
			t.Errorf("setting RunConfig.%s does not change its cell's key: add it to Cell, or to uncacheable", name)
		}
	}
	for name := range skip {
		t.Errorf("uncacheable lists %q, which is not a RunConfig field", name)
	}
}
