package anchor

import (
	"testing"

	"repro/internal/prog"
)

// Two shapes Algorithm 1 and the unified-table cloning must get right:
// loop-phi cursor anchors (the cursor's pioneer lives outside the loop but
// dominates every iteration) and nested-call cloning (the same callee
// reached at two depths of one atomic block's call tree).

// loopPhiModule is the canonical list-walk shape: entry loads the head
// pointer, the loop body loads key/next through a phi-merged cursor.
func loopPhiModule() *prog.Module {
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
	return mod
}

// nestedCallModule builds an atomic block whose root calls leaf both
// directly and through a middle function, which also calls deep: a
// callee reached only at depth 2.
func nestedCallModule() *prog.Module {
	mod := prog.NewModule("nested")
	leaf := mod.NewFunc("leaf", "p")
	leaf.Entry().Load(leaf.Param(0), "x")
	leaf.Entry().Store(leaf.Param(0), "x")
	deep := mod.NewFunc("deep", "r")
	deep.Entry().Store(deep.Param(0), "y")

	mid := mod.NewFunc("mid", "q")
	mid.Entry().Load(mid.Param(0), "hdr")
	mid.Entry().Call(leaf, mid.Param(0))
	mid.Entry().Call(deep, mid.Param(0))

	root := mod.NewFunc("root", "ptr")
	root.Entry().Call(leaf, root.Param(0))
	root.Entry().Call(mid, root.Param(0))
	mod.Atomic("root", root)
	mod.MustFinalize()
	return mod
}

// checkUnified asserts, for every atomic block, that every site of every
// function reachable from its root has a unified row resolving to an
// anchor, and that a follower's pioneer is an anchor on its node that
// dominates it. It returns the anchor and row counts over all blocks.
func checkUnified(t *testing.T, c *Compiled) (anchors, rows int) {
	t.Helper()
	for _, ab := range c.Mod.Atomics {
		u := c.Unified[ab]
		for _, f := range prog.ReachableFuncs(ab.Root) {
			for _, s := range f.Sites() {
				e := u.EntryForSite(s.ID)
				if e == nil {
					t.Fatalf("%s: site %v of %s has no unified row", ab.Name, s, f.Name)
				}
				a := u.AnchorFor(e)
				if a == nil || !a.IsAnchor {
					t.Fatalf("%s: site %v of %s resolves to no anchor", ab.Name, s, f.Name)
				}
				if e.IsAnchor {
					continue
				}
				if !a.Node.Same(e.Node) || !prog.InstrDominates(a.Site.Instr, s.Instr) {
					t.Fatalf("%s: pioneer %d of site %d is on another node or does not dominate it",
						ab.Name, a.Site.ID, s.ID)
				}
			}
		}
		for _, e := range u.Entries {
			if e.IsAnchor {
				anchors++
			}
		}
		rows += len(u.Entries)
	}
	return anchors, rows
}

// shapeOptions are the two instrumentation modes; the unified tables must
// satisfy the same invariants under both.
var shapeOptions = []Options{DefaultOptions(), {PCBits: 12, Naive: true}}

// shapeName names an instrumentation mode for its subtest.
func shapeName(opts Options) string {
	if opts.Naive {
		return "naive"
	}
	return "default"
}

// TestLoopPhiCursorAnchors: the loop-body sites alias the list cell
// through the phi, so their pioneer sits in a dominating block and the
// table mixes anchors and followers.
func TestLoopPhiCursorAnchors(t *testing.T) {
	for _, opts := range shapeOptions {
		t.Run(shapeName(opts), func(t *testing.T) {
			anchors, rows := checkUnified(t, Compile(loopPhiModule(), opts))
			if anchors == 0 || anchors == rows {
				t.Fatalf("loop-phi table should mix anchors and followers, got %d/%d anchors",
					anchors, rows)
			}
		})
	}
}

// TestNestedCallCloning: leaf's sites are reached at depth 1 and depth 2
// of the block's call tree and deep's only at depth 2; every one of them
// has a row and an anchor.
func TestNestedCallCloning(t *testing.T) {
	for _, opts := range shapeOptions {
		t.Run(shapeName(opts), func(t *testing.T) {
			c := Compile(nestedCallModule(), opts)
			if _, rows := checkUnified(t, c); rows != c.Mod.NumSites() {
				t.Fatalf("unified table has %d rows, want one per site (%d)",
					rows, c.Mod.NumSites())
			}
		})
	}
}
