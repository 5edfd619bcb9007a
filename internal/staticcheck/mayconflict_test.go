package staticcheck_test

import (
	"strings"
	"testing"

	"repro/internal/anchor"
	"repro/internal/prog"
	"repro/internal/staticcheck"
)

// compileM finalizes the module and runs the anchor pass the matrix is
// built over.
func compileM(t *testing.T, m *prog.Module) *anchor.Compiled {
	t.Helper()
	m.MustFinalize()
	return anchor.Compile(m, anchor.DefaultOptions())
}

// TestMatrixDisjointStructures: two atomic blocks writing two different
// globals through identical field paths must land in distinct classes —
// same-named fields alone (both store ->x) must not alias unrooted
// structures.
func TestMatrixDisjointStructures(t *testing.T) {
	m := prog.NewModule("disjoint")
	gA, gB := m.Global("tableA"), m.Global("tableB")
	f1 := m.NewFunc("wa", "p")
	s1 := f1.Entry().Store(f1.Param(0), "x")
	f2 := m.NewFunc("wb", "p")
	s2 := f2.Entry().Store(f2.Param(0), "x")
	r1 := m.NewFunc("r1")
	r1.Entry().Call(f1, gA)
	m.Atomic("ab1", r1)
	r2 := m.NewFunc("r2")
	r2.Entry().Call(f2, gB)
	m.Atomic("ab2", r2)
	mc := staticcheck.BuildMayConflict(compileM(t, m))

	if mc.MayConflictPair(1, 2) {
		t.Errorf("blocks on disjoint globals may-conflict: classes %v", mc.ConflictClasses(1, 2))
	}
	// Self-pairs still conflict: two threads in one block write one class.
	if !mc.MayConflictPair(1, 1) || !mc.MayConflictPair(2, 2) {
		t.Error("self-pairs of writing blocks must may-conflict")
	}
	if ok, why := mc.Contains(1, s1.ID, 2, s2.ID); ok || !strings.Contains(why, "distinct classes") {
		t.Errorf("Contains(disjoint) = %v, %q", ok, why)
	}
}

// TestMatrixSharedGlobalAliases: the same global bound into two blocks'
// roots is one object — a store in one block conflicts with a load in
// the other even though no static site is shared.
func TestMatrixSharedGlobalAliases(t *testing.T) {
	m := prog.NewModule("aliased")
	g := m.Global("table")
	fw := m.NewFunc("writer", "p")
	sw := fw.Entry().Store(fw.Param(0), "x")
	fr := m.NewFunc("reader", "p")
	sr := fr.Entry().Load(fr.Param(0), "x")
	r1 := m.NewFunc("r1")
	r1.Entry().Call(fw, g)
	m.Atomic("ab1", r1)
	r2 := m.NewFunc("r2")
	r2.Entry().Call(fr, g)
	m.Atomic("ab2", r2)
	mc := staticcheck.BuildMayConflict(compileM(t, m))

	if !mc.MayConflictPair(1, 2) {
		t.Fatal("blocks sharing a written global must may-conflict")
	}
	if ok, why := mc.Contains(2, sr.ID, 1, sw.ID); !ok {
		t.Errorf("Contains(load vs store on shared global) = false: %s", why)
	}
	// Read-only sharing is not a conflict: reader vs reader.
	if ok, why := mc.Contains(2, sr.ID, 2, sr.ID); ok || !strings.Contains(why, "read-only") {
		t.Errorf("Contains(load vs load) = %v, %q", ok, why)
	}
}

// listLike declares a list traversal with a loop-carried cursor
// (cur = cur->next) plus a link store through the cursor and a store to
// a fresh node parameter, mirroring simds.SortedList's insert.
func listLike(m *prog.Module, name string) (fn *prog.Func, link, fresh *prog.Site) {
	f := m.NewFunc(name, "listPtr", "node")
	entry, loop, exit := f.Entry(), f.NewBlock("loop"), f.NewBlock("exit")
	entry.To(loop)
	loop.To(loop, exit)
	head, _ := entry.LoadPtr("cur0", f.Param(0), "head")
	cur := f.Phi("cur")
	f.Bind(cur, head)
	loop.Load(cur, "key")
	next, _ := loop.LoadPtr("next", cur, "next")
	f.Bind(cur, next)
	fresh = exit.Store(f.Param(1), "key")
	link = exit.StorePtr(cur, "next", f.Param(1))
	return f, link, fresh
}

// TestMatrixLoopCarriedClosure: one block reaches the cells through the
// head load only, the other through the full loop-carried cursor. The
// field-path closure must put both cell populations in one class.
func TestMatrixLoopCarriedClosure(t *testing.T) {
	m := prog.NewModule("closure")
	g := m.Global("list")
	// Shallow reader: first cell only.
	fs := m.NewFunc("peek", "listPtr")
	c0, _ := fs.Entry().LoadPtr("c0", fs.Param(0), "head")
	sPeek := fs.Entry().Load(c0, "key")
	// Deep writer: loop-carried cursor.
	fd, link, _ := listLike(m, "list_insert")
	r1 := m.NewFunc("r1")
	r1.Entry().Call(fs, g)
	m.Atomic("ab1", r1)
	r2 := m.NewFunc("r2", "n")
	r2.Entry().Call(fd, g, r2.Param(0))
	m.Atomic("ab2", r2)
	mc := staticcheck.BuildMayConflict(compileM(t, m))

	if ok, why := mc.Contains(1, sPeek.ID, 2, link.ID); !ok {
		t.Errorf("Contains(head cell load vs cursor link store) = false: %s", why)
	}
}

// TestMatrixDegeneratePredecessor: a link store through a SELF-ADVANCING
// cursor gets a secondary write membership in the traversal's origin
// class (the header is the "previous cell" after zero advances), while
// a store to a fresh node parameter gets none, and a pointer loaded
// exactly once from an owner's field (no self-advance) gets none either.
func TestMatrixDegeneratePredecessor(t *testing.T) {
	m := prog.NewModule("degpred")
	g := m.Global("list")
	fd, link, fresh := listLike(m, "list_insert")
	// Tree-ish: leaf loaded once from the owner, stored through, never
	// advanced through itself.
	ft := m.NewFunc("leaf_store", "treePtr")
	lv, _ := ft.Entry().LoadPtr("leaf", ft.Param(0), "leafchild")
	sLeaf := ft.Entry().Store(lv, "key")
	r1 := m.NewFunc("r1", "n")
	r1.Entry().Call(fd, g, r1.Param(0))
	m.Atomic("ab1", r1)
	r2 := m.NewFunc("r2")
	r2.Entry().Call(ft, g)
	m.Atomic("ab2", r2)
	mc := staticcheck.BuildMayConflict(compileM(t, m))

	headerClass := mc.SiteClass(1, headSiteID(t, m, "list_insert"))
	if cs := mc.SiteClasses(1, link.ID); len(cs) != 2 || cs[1] != headerClass {
		t.Errorf("link store memberships = %v, want [cell %s]", cs, headerClass)
	}
	if cs := mc.SiteClasses(1, fresh.ID); len(cs) != 1 {
		t.Errorf("fresh-node store memberships = %v, want primary only", cs)
	}
	if cs := mc.SiteClasses(2, sLeaf.ID); len(cs) != 1 {
		t.Errorf("single-load leaf store memberships = %v, want primary only (no self-advance)", cs)
	}
	// The secondary membership is a WRITE: the header class must count as
	// written even though no site stores through the header pointer.
	if !mc.Writes(headerClass, 1) {
		t.Error("degenerate-predecessor membership did not mark the header class written")
	}
}

// headSiteID finds fn's entry-block head load (the site whose class is
// the traversal's origin object).
func headSiteID(t *testing.T, m *prog.Module, fn string) uint32 {
	t.Helper()
	for _, s := range m.FuncByName(fn).Sites() {
		if s.Field == "head" {
			return s.ID
		}
	}
	t.Fatalf("no head load in %s", fn)
	return 0
}

// TestMatrixShapeHint: without a shape hint, a block reaching leaves via
// tree.headleaf and a block reaching them via tree.root->leafchild stay
// in distinct classes (the aliasing lives in constructor code outside
// the blocks); with the hint, they unify — the tsp containment fix in
// miniature.
func TestMatrixShapeHint(t *testing.T) {
	build := func(hint bool) (*staticcheck.MayConflict, uint32, uint32) {
		m := prog.NewModule("shape")
		g := m.Global("tree")
		fp := m.NewFunc("pop", "treePtr")
		hl, _ := fp.Entry().LoadPtr("head", fp.Param(0), "headleaf")
		sPop := fp.Entry().Store(hl, "n")
		fi := m.NewFunc("push", "treePtr")
		rt, _ := fi.Entry().LoadPtr("root", fi.Param(0), "root")
		lf, _ := fi.Entry().LoadPtr("leaf", rt, "leafchild")
		sPush := fi.Entry().Store(lf, "n")
		r1 := m.NewFunc("r1")
		r1.Entry().Call(fp, g)
		m.Atomic("ab1", r1)
		r2 := m.NewFunc("r2")
		r2.Entry().Call(fi, g)
		m.Atomic("ab2", r2)
		if hint {
			sh := m.NewFunc("tree_shape")
			b := sh.Entry()
			inner := b.Alloc("inner")
			leaf := b.Alloc("leaf")
			b.StorePtr(g, "root", inner)
			b.StorePtr(inner, "leafchild", leaf)
			b.StorePtr(g, "headleaf", leaf)
			m.MarkShape(sh)
		}
		return staticcheck.BuildMayConflict(compileM(t, m)), sPop.ID, sPush.ID
	}

	mc, pop, push := build(false)
	if ok, _ := mc.Contains(1, pop, 2, push); ok {
		t.Fatal("without a shape hint the leaf populations must stay distinct (the hint must be doing the work)")
	}
	mc, pop, push = build(true)
	if ok, why := mc.Contains(1, pop, 2, push); !ok {
		t.Errorf("with the shape hint Contains(headleaf store vs leafchild store) = false: %s", why)
	}
}

// TestVerifyConflictsCleanAndUnderLock: the aliased-global module passes
// sufficiency and precision untouched; clearing the ALP of the list-head
// load, the anchor that serializes the list, must produce a sufficiency
// violation that carries a counterexample path.
func TestVerifyConflictsCleanAndUnderLock(t *testing.T) {
	m := prog.NewModule("underlock")
	g := m.Global("list")
	fd, _, _ := listLike(m, "list_insert")
	r1 := m.NewFunc("r1", "n")
	r1.Entry().Call(fd, g, r1.Param(0))
	m.Atomic("ab1", r1)
	c := compileM(t, m)

	if _, vs := staticcheck.VerifyConflicts(c, nil); len(vs) != 0 {
		t.Fatalf("clean module reports violations: %v", vs)
	}
	var head *prog.Site
	for _, s := range fd.Sites() {
		if s.Field == "head" {
			head = s
		}
	}
	if head == nil || !c.IsALP[head.ID] {
		t.Fatalf("fixture assumption broken: the list-head load (%v) is not an ALP", head)
	}
	c.IsALP[head.ID] = false
	_, vs := staticcheck.VerifyConflicts(c, nil)
	if len(vs) == 0 {
		t.Fatalf("cleared ALP at site %d but sufficiency still passes", head.ID)
	}
	for _, v := range vs {
		if v.Check != staticcheck.CheckSufficiency {
			t.Errorf("unexpected %s violation: %s", v.Check, v.Msg)
		}
		if len(v.Path) == 0 {
			t.Errorf("sufficiency violation without a counterexample path: %s", v.Msg)
		}
	}
}

// TestVerifyConflictsPrecisionAndWaivers: an ALP on a never-written
// class is flagged, a waiver absorbs it, and a waiver matching nothing
// is itself reported as stale.
func TestVerifyConflictsPrecisionAndWaivers(t *testing.T) {
	m := prog.NewModule("overlock")
	g := m.Global("config")
	fr := m.NewFunc("reader", "p")
	sCfg := fr.Entry().Load(fr.Param(0), "dim")
	fr.Entry().Load(fr.Param(0), "scale")
	r1 := m.NewFunc("r1")
	r1.Entry().Call(fr, g)
	m.Atomic("ab1", r1)
	c := compileM(t, m)

	_, vs := staticcheck.VerifyConflicts(c, nil)
	if len(vs) != 1 || vs[0].Check != staticcheck.CheckPrecision || vs[0].Site != sCfg.ID {
		t.Fatalf("want one precision violation at site %d, got %v", sCfg.ID, vs)
	}
	if _, vs := staticcheck.VerifyConflicts(c, map[uint32]string{sCfg.ID: "read-only config block"}); len(vs) != 0 {
		t.Errorf("waiver did not absorb the finding: %v", vs)
	}
	_, vs = staticcheck.VerifyConflicts(c, map[uint32]string{sCfg.ID: "ok", 99: "bogus"})
	if len(vs) != 1 || vs[0].Check != staticcheck.CheckPrecision || !strings.Contains(vs[0].Msg, "stale") {
		t.Errorf("stale waiver not reported: %v", vs)
	}
}

// TestCheckConflictPairs: containment accepts in-matrix pairs, rejects
// unknown sites and distinct classes, and reports each distinct pair
// once regardless of duplicates.
func TestCheckConflictPairs(t *testing.T) {
	m := prog.NewModule("pairs")
	g := m.Global("table")
	fw := m.NewFunc("writer", "p")
	sw := fw.Entry().Store(fw.Param(0), "x")
	fr := m.NewFunc("reader", "p")
	sr := fr.Entry().Load(fr.Param(0), "x")
	r1 := m.NewFunc("r1")
	r1.Entry().Call(fw, g)
	m.Atomic("ab1", r1)
	r2 := m.NewFunc("r2")
	r2.Entry().Call(fr, g)
	m.Atomic("ab2", r2)
	mc := staticcheck.BuildMayConflict(compileM(t, m))

	good := staticcheck.DynPair{VictimAB: 2, VictimSite: sr.ID, KillerAB: 1, KillerSite: sw.ID}
	if vs := staticcheck.CheckConflictPairs(mc, []staticcheck.DynPair{good, good}); len(vs) != 0 {
		t.Errorf("in-matrix pair rejected: %v", vs)
	}
	bad := staticcheck.DynPair{VictimAB: 1, VictimSite: 999, KillerAB: 1, KillerSite: sw.ID}
	vs := staticcheck.CheckConflictPairs(mc, []staticcheck.DynPair{bad, bad, bad})
	if len(vs) != 1 || vs[0].Check != staticcheck.CheckContainment {
		t.Errorf("unknown-site pair: want one containment violation, got %v", vs)
	}
}
