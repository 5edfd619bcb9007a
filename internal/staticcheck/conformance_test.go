package staticcheck_test

import (
	"strings"
	"testing"

	"repro/internal/anchor"
	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/prog"
	"repro/internal/stagger"
	"repro/internal/staticcheck"
	"repro/internal/workloads"
)

func compileFor(t *testing.T, w *workloads.Workload) *anchor.Compiled {
	t.Helper()
	return anchor.Compile(w.Mod, anchor.DefaultOptions())
}

// run executes one small harness run with a conformance recorder
// installed and returns the recorder and compiled module.
func run(t *testing.T, bench string, ops int) (*staticcheck.Conformance, *harness.Result) {
	t.Helper()
	rec := staticcheck.NewConformance()
	return rec, runRecorded(t, bench, ops, rec)
}

// runRecorded is run with the caller's recorder.
func runRecorded(t *testing.T, bench string, ops int, rec backend.SiteRecorder) *harness.Result {
	t.Helper()
	res, err := harness.Run(harness.RunConfig{
		Benchmark:    bench,
		Mode:         stagger.ModeStaggeredHW,
		Threads:      2,
		Seed:         7,
		TotalOps:     ops,
		SiteRecorder: rec,
	})
	if err != nil {
		t.Fatalf("%s: %v", bench, err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("%s: workload verify: %v", bench, res.VerifyErr)
	}
	return res
}

// TestConformanceCleanOnAllWorkloads is the dynamic half of check (d):
// every benchmark's Go body attributes accesses only to sites the IR
// declares, with matching kinds and table coverage.
func TestConformanceCleanOnAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		rec, res := run(t, name, 120)
		if rec.Observations() == 0 {
			t.Errorf("%s: conformance recorder saw no accesses", name)
			continue
		}
		if vs := rec.Check(res.Compiled); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("%s: %s", name, v)
			}
		}
	}
}

// driftRecorder forwards every access to the conformance recorder and,
// after each store at the tree-update store site inside make_reservation,
// also records a load there: the input the checker would see if
// vacation's reservation body loaded through a site the IR declares a
// store.
type driftRecorder struct{ *staticcheck.Conformance }

func (d driftRecorder) RecordAccess(ab *prog.AtomicBlock, s *prog.Site, isStore bool) {
	d.Conformance.RecordAccess(ab, s, isStore)
	if isStore && ab != nil && ab.Name == "make_reservation" && s != nil && s.Fn.Name == "rb_update" {
		d.Conformance.RecordAccess(ab, s, false)
	}
}

// TestConformanceCatchesDriftMutation runs real vacation with the drift
// recorder: the checker must report exactly that kind mismatch with
// block- and site-level identity.
func TestConformanceCatchesDriftMutation(t *testing.T) {
	rec := staticcheck.NewConformance()
	res := runRecorded(t, "vacation", 120, driftRecorder{rec})
	vs := rec.Check(res.Compiled)
	if len(vs) == 0 {
		t.Fatal("conformance checker missed the seeded IR-drift mutation")
	}
	ab := res.Compiled.Mod.AtomicByName("make_reservation")
	for _, v := range vs {
		if v.Check != staticcheck.CheckConformance {
			t.Fatalf("unexpected check %q: %s", v.Check, v)
		}
		if v.AB != ab.ID {
			t.Fatalf("drift attributed to block %d, want %d (make_reservation): %s", v.AB, ab.ID, v)
		}
		if v.Site == 0 || !res.Compiled.Mod.SiteByID[v.Site].IsStore {
			t.Fatalf("drift must name the store site: %s", v)
		}
		if !strings.Contains(v.Msg, "dynamic load executed at a site the IR declares a store") {
			t.Fatalf("wrong diagnostic: %s", v)
		}
	}
}

// TestConformanceRejectsForeignSite feeds the recorder a site pointer
// the module does not own (simulating a stale pointer after an IR
// rebuild) and a nil site.
func TestConformanceRejectsForeignSite(t *testing.T) {
	w, err := workloads.Get("vacation")
	if err != nil {
		t.Fatal(err)
	}
	other, err := workloads.Get("vacation") // fresh module, disjoint sites
	if err != nil {
		t.Fatal(err)
	}
	comp := compileFor(t, w)
	rec := staticcheck.NewConformance()
	ab := w.Mod.Atomics[0]
	rec.RecordAccess(ab, other.Mod.SiteByID[1], false)
	rec.RecordAccess(ab, nil, true)
	vs := rec.Check(comp)
	if len(vs) != 2 {
		t.Fatalf("want 2 violations (foreign site, nil site), got %v", vs)
	}
	if !strings.Contains(vs[0].Msg, "nil site") && !strings.Contains(vs[1].Msg, "nil site") {
		t.Fatalf("nil-site diagnostic missing: %v", vs)
	}
	found := false
	for _, v := range vs {
		if strings.Contains(v.Msg, "IR does not contain") {
			found = true
		}
	}
	if !found {
		t.Fatalf("foreign-site diagnostic missing: %v", vs)
	}
}
