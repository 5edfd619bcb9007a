package staticcheck_test

import (
	"testing"

	"repro/internal/anchor"
	"repro/internal/prog"
	"repro/internal/staticcheck"
)

// Edge-case shapes the IR verifier must get right: loop-phi cursor
// anchors (the cursor's pioneer lives outside the loop but dominates
// every iteration) and nested-call cloning (the same callee inlined at
// two depths of one atomic block's call tree).

// loopPhiFixture is the canonical list-walk shape: entry loads the head
// pointer, the loop body loads key/next through a phi-merged cursor.
func loopPhiFixture(t *testing.T) *anchor.Compiled {
	t.Helper()
	mod := prog.NewModule("loopphi")
	f := mod.NewFunc("walk", "listPtr")
	entry, loop, exit := f.Entry(), f.NewBlock("loop"), f.NewBlock("exit")
	entry.To(loop)
	loop.To(loop, exit)
	head, _ := entry.LoadPtr("cur0", f.Param(0), "head")
	cur := f.Phi("cur")
	f.Bind(cur, head)
	loop.Load(cur, "key")
	next, _ := loop.LoadPtr("next", cur, "next")
	f.Bind(cur, next)
	exit.Store(cur, "val")
	mod.Atomic("walk", f)
	mod.MustFinalize()
	return anchor.Compile(mod, anchor.DefaultOptions())
}

// TestLoopPhiCursorAnchors: the loop-body sites all alias the list-cell
// node through the phi; their pioneer must sit in a dominating block
// (entry or the loop header itself), so every check passes and the
// in-loop sites are not themselves all anchors.
func TestLoopPhiCursorAnchors(t *testing.T) {
	c := loopPhiFixture(t)
	if vs := staticcheck.Verify(c); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("unexpected violation: %s", v)
		}
	}
	ab := c.Mod.Atomics[0]
	u := c.Unified[ab]
	anchors := 0
	for _, e := range u.Entries {
		if e.IsAnchor {
			anchors++
		}
	}
	if anchors == 0 || anchors == len(u.Entries) {
		t.Fatalf("loop-phi table should mix anchors and followers, got %d/%d anchors",
			anchors, len(u.Entries))
	}
}

// nestedCallFixture builds an atomic block whose root calls leaf both
// directly and through a middle function — the callee's sites must be
// present (cloned into one unified universe) either way, with anchors
// whose pioneers dominate through the inlined call chains.
func nestedCallFixture(t *testing.T) *anchor.Compiled {
	t.Helper()
	mod := prog.NewModule("nested")
	leaf := mod.NewFunc("leaf", "p")
	leaf.Entry().Load(leaf.Param(0), "x")
	leaf.Entry().Store(leaf.Param(0), "x")

	mid := mod.NewFunc("mid", "q")
	mid.Entry().Load(mid.Param(0), "hdr")
	mid.Entry().Call(leaf, mid.Param(0))

	root := mod.NewFunc("root", "ptr")
	root.Entry().Call(leaf, root.Param(0))
	root.Entry().Call(mid, root.Param(0))
	mod.Atomic("root", root)
	mod.MustFinalize()
	return anchor.Compile(mod, anchor.DefaultOptions())
}

func TestNestedCallCloningVerifies(t *testing.T) {
	c := nestedCallFixture(t)
	if vs := staticcheck.Verify(c); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("unexpected violation: %s", v)
		}
	}
	// Every site of every reachable function must have a unified entry —
	// the coverage check asserts this too, but spell it out so a cloning
	// regression points here first.
	ab := c.Mod.Atomics[0]
	u := c.Unified[ab]
	for _, f := range prog.ReachableFuncs(ab.Root) {
		for _, s := range f.Sites() {
			e := u.EntryForSite(s.ID)
			if e == nil {
				t.Fatalf("site %v of %s missing from unified table", s, f.Name)
			}
			if u.AnchorFor(e) == nil {
				t.Fatalf("site %v of %s has no anchor", s, f.Name)
			}
		}
	}
}

// TestNestedCallCloningNaive: the same shapes under naive
// instrumentation (every access an ALP) must also verify — this is the
// configuration where the scope check has the most ALP rows to
// get wrong.
func TestNestedCallCloningNaive(t *testing.T) {
	for _, build := range []func(*testing.T) *anchor.Compiled{loopPhiFixture, nestedCallFixture} {
		c := build(t)
		opts := anchor.Options{PCBits: 12, Naive: true}
		cn := anchor.Compile(c.Mod, opts)
		if vs := staticcheck.Verify(cn); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("naive: unexpected violation: %s", v)
			}
		}
	}
}
