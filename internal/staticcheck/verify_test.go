package staticcheck_test

import (
	"strings"
	"testing"

	"repro/internal/anchor"
	"repro/internal/prog"
	"repro/internal/staticcheck"
	"repro/internal/workloads"
)

// TestVerifyCleanOnAllWorkloads proves the compiler pass's real output
// upholds invariants (a)-(c) on every benchmark: the verifier is not
// vacuous (it inspects hundreds of table rows) and raises nothing.
func TestVerifyCleanOnAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c := anchor.Compile(w.Mod, anchor.DefaultOptions())
		if vs := staticcheck.Verify(c); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("%s: %s", name, v)
			}
		}
	}
}

func TestVerifyCleanNaive(t *testing.T) {
	// Naive mode instruments every site; the invariants must still hold.
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := anchor.DefaultOptions()
		opts.Naive = true
		c := anchor.Compile(w.Mod, opts)
		if vs := staticcheck.Verify(c); len(vs) != 0 {
			t.Errorf("%s (naive): %v", name, vs)
		}
	}
}

// diamond builds a module whose atomic block has a branch: the site in
// the "right" arm and the site in the join block touch the same node.
// The natural compile makes both anchors (neither dominates the other),
// which is valid; tests tamper the exported table rows to fabricate the
// defects the verifier must reject.
func diamond(t *testing.T) (*anchor.Compiled, *prog.AtomicBlock, *prog.Site, *prog.Site) {
	t.Helper()
	m := prog.NewModule("diamond")
	f := m.NewFunc("f", "p")
	entry := f.Entry()
	left := f.NewBlock("left")
	right := f.NewBlock("right")
	join := f.NewBlock("join")
	entry.To(left, right)
	left.To(join)
	right.To(join)
	sR := right.Load(f.Param(0), "x")
	sJ := join.Load(f.Param(0), "x")
	ab := m.Atomic("ab", f)
	m.MustFinalize()
	c := anchor.Compile(m, anchor.DefaultOptions())
	if vs := staticcheck.Verify(c); len(vs) != 0 {
		t.Fatalf("untampered diamond must verify: %v", vs)
	}
	return c, ab, sR, sJ
}

// TestConditionallySkippedAnchorRejected is the satellite fixture: an
// atomic block whose only anchor for a structure sits in one arm of a
// branch, so a path reaches the join-block access with no advisory lock
// acquired. Check (a) must reject it with the skipping path as the
// counterexample.
func TestConditionallySkippedAnchorRejected(t *testing.T) {
	c, ab, sR, sJ := diamond(t)
	u := c.Unified[ab]
	e := u.EntryForSite(sJ.ID)
	e.IsAnchor = false
	e.PioneerID = sR.ID

	vs := staticcheck.Verify(c)
	if len(vs) == 0 {
		t.Fatal("conditionally skipped anchor not rejected")
	}
	v := vs[0]
	if v.Check != staticcheck.CheckScope || v.AB != ab.ID || v.Site != sJ.ID {
		t.Fatalf("wrong diagnostic identity: %s", v)
	}
	// The minimal counterexample must route through the other arm.
	path := strings.Join(v.Path, " -> ")
	if path != "entry -> left -> join" {
		t.Fatalf("counterexample path = %q, want entry -> left -> join", path)
	}
}

func TestPioneerAfterSiteInSameBlock(t *testing.T) {
	m := prog.NewModule("order")
	f := m.NewFunc("f", "p")
	s1 := f.Entry().Load(f.Param(0), "a")
	s2 := f.Entry().Load(f.Param(0), "b")
	ab := m.Atomic("ab", f)
	m.MustFinalize()
	c := anchor.Compile(m, anchor.DefaultOptions())
	u := c.Unified[ab]
	// Invert the legitimate pioneer relation: s1 now claims the LATER
	// site as its pioneer.
	e1 := u.EntryForSite(s1.ID)
	e2 := u.EntryForSite(s2.ID)
	e1.IsAnchor, e1.PioneerID = false, s2.ID
	e2.IsAnchor, e2.PioneerID = true, 0
	found := false
	for _, v := range staticcheck.Verify(c) {
		if v.Check == staticcheck.CheckScope && v.Site == s1.ID &&
			len(v.Path) == 1 && strings.Contains(v.Path[0], "pioneer follows the site") {
			found = true
		}
	}
	if !found {
		t.Fatal("same-block pioneer-after-site not rejected")
	}
	_ = ab
}

func TestMissingPioneerRejected(t *testing.T) {
	c, ab, _, sJ := diamond(t)
	e := c.Unified[ab].EntryForSite(sJ.ID)
	e.IsAnchor = false
	e.PioneerID = 0
	var checks []string
	for _, v := range staticcheck.Verify(c) {
		checks = append(checks, v.Check)
	}
	if !contains(checks, staticcheck.CheckScope) {
		t.Fatalf("missing pioneer must fail anchor-scope, got %v", checks)
	}
	if !contains(checks, staticcheck.CheckCoverage) {
		t.Fatalf("anchor-less site must fail coverage, got %v", checks)
	}
}

func TestSelfParentRejected(t *testing.T) {
	c, ab, sR, _ := diamond(t)
	e := c.Unified[ab].EntryForSite(sR.ID)
	e.ParentID = sR.ID
	vs := staticcheck.Verify(c)
	if len(vs) != 1 || vs[0].Check != staticcheck.CheckScope ||
		!strings.Contains(vs[0].Msg, "own parent") {
		t.Fatalf("self-parent not rejected: %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	v := staticcheck.Violation{Check: staticcheck.CheckScope, AB: 2, Site: 7,
		Msg: "boom", Path: []string{"entry", "left"}}
	got := v.String()
	want := "[anchor-scope] ab=2 site=7: boom [counterexample: entry -> left]"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
