package simds

import (
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// RBTree is a red-black tree mapping uint64 keys to uint64 values —
// vacation's reservation tables. Each node occupies one cache line:
// [key, val, left, right, parent, color]. Vacation's transactions are
// dominated by lookups and in-place value updates with occasional
// inserts, so contention is low (the paper's Table 4 rates vacation
// "med" with 0.49 aborts/commit); deletions are not needed by the
// workload and are not implemented.
type RBTree struct {
	FnLookup *prog.Func
	FnInsert *prog.Func
	FnUpdate *prog.Func

	sLkRoot, sLkKey, sLkChild, sLkVal *prog.Site

	sInRoot, sInKey, sInChild                       *prog.Site
	sInNewInit, sInLinkChild, sInSetRoot            *prog.Site
	sInColorLoad, sInColorStore, sInParentLoad      *prog.Site
	sInChildLoad, sInChildStore, sInParentStore     *prog.Site
	sInKeyLoad                                      *prog.Site
	sUpRoot, sUpKey, sUpChild, sUpValLoad, sUpValSt *prog.Site
}

const (
	rbRootOff = 0 // header word 0: root pointer

	rbKeyOff    = 0
	rbValOff    = 1
	rbLeftOff   = 2
	rbRightOff  = 3
	rbParentOff = 4
	rbColorOff  = 5 // 0 = black, 1 = red

	rbBlack = 0
	rbRed   = 1
)

// DeclareRBTree registers the tree's static code in m.
func DeclareRBTree(m *prog.Module) *RBTree {
	t := &RBTree{}

	declDescend := func(f *prog.Func) (sRoot, sKey, sChild *prog.Site, cur *prog.Value) {
		entry, loop, exit := f.Entry(), f.NewBlock("loop"), f.NewBlock("exit")
		entry.To(loop)
		loop.To(loop, exit)
		root, sR := entry.LoadPtr("root", f.Param(0), "root")
		c := f.Phi("cur")
		f.Bind(c, root)
		sK := loop.Load(c, "key")
		child, sC := loop.LoadPtr("child", c, "child")
		f.Bind(c, child)
		return sR, sK, sC, c
	}

	t.FnLookup = m.NewFunc("rb_lookup", "treePtr")
	{
		f := t.FnLookup
		var cur *prog.Value
		t.sLkRoot, t.sLkKey, t.sLkChild, cur = declDescend(f)
		t.sLkVal = f.Blocks[2].Load(cur, "val")
	}

	t.FnUpdate = m.NewFunc("rb_update", "treePtr")
	{
		f := t.FnUpdate
		var cur *prog.Value
		t.sUpRoot, t.sUpKey, t.sUpChild, cur = declDescend(f)
		t.sUpValLoad = f.Blocks[2].Load(cur, "val")
		t.sUpValSt = f.Blocks[2].Store(cur, "val")
	}

	t.FnInsert = m.NewFunc("rb_insert", "treePtr", "node")
	{
		f := t.FnInsert
		var cur *prog.Value
		t.sInRoot, t.sInKey, t.sInChild, cur = declDescend(f)
		exit := f.Blocks[2]
		t.sInNewInit = exit.Store(f.Param(1), "fields")
		t.sInLinkChild = exit.StorePtr(cur, "child", f.Param(1))
		t.sInSetRoot = exit.StorePtr(f.Param(0), "root", f.Param(1))
		// Rebalancing accesses (rotations and recoloring) on tree nodes.
		t.sInColorLoad = exit.Load(cur, "color")
		t.sInColorStore = exit.Store(cur, "color")
		parent, sPL := exit.LoadPtr("parent", cur, "parent")
		t.sInParentLoad = sPL
		t.sInParentStore = exit.StorePtr(cur, "parent", parent)
		child2, sCL := exit.LoadPtr("child2", cur, "child")
		t.sInChildLoad = sCL
		t.sInChildStore = exit.StorePtr(cur, "child", child2)
		t.sInKeyLoad = exit.Load(cur, "key")
	}
	return t
}

// NewRBTree allocates an empty tree header.
func NewRBTree(al *mem.Allocator) mem.Addr { return al.AllocLines(1) }

// Lookup returns the value under key.
func (t *RBTree) Lookup(tc Ctx, tree mem.Addr, key uint64) (uint64, bool) {
	cur := mem.Addr(tc.Load(t.sLkRoot, tree+w(rbRootOff)))
	for cur != nilPtr {
		k := tc.Load(t.sLkKey, cur+w(rbKeyOff))
		tc.Compute(3)
		if k == key {
			return tc.Load(t.sLkVal, cur+w(rbValOff)), true
		}
		off := rbLeftOff
		if key > k {
			off = rbRightOff
		}
		cur = mem.Addr(tc.Load(t.sLkChild, cur+w(off)))
	}
	return 0, false
}

// Update adds delta to the value under key; reports whether key existed.
func (t *RBTree) Update(tc Ctx, tree mem.Addr, key, delta uint64) bool {
	cur := mem.Addr(tc.Load(t.sUpRoot, tree+w(rbRootOff)))
	for cur != nilPtr {
		k := tc.Load(t.sUpKey, cur+w(rbKeyOff))
		tc.Compute(3)
		if k == key {
			v := tc.Load(t.sUpValLoad, cur+w(rbValOff))
			tc.Store(t.sUpValSt, cur+w(rbValOff), v+delta)
			return true
		}
		off := rbLeftOff
		if key > k {
			off = rbRightOff
		}
		cur = mem.Addr(tc.Load(t.sUpChild, cur+w(off)))
	}
	return false
}

// Insert adds key→val using the caller-provided fresh node line, then
// restores the red-black invariants. Returns false if key existed (value
// left unchanged, node unused).
func (t *RBTree) Insert(tc Ctx, tree mem.Addr, key, val uint64, node mem.Addr) bool {
	parent := mem.Addr(nilPtr)
	cur := mem.Addr(tc.Load(t.sInRoot, tree+w(rbRootOff)))
	off := rbRootOff
	parentIsHeader := true
	for cur != nilPtr {
		k := tc.Load(t.sInKey, cur+w(rbKeyOff))
		tc.Compute(3)
		if k == key {
			return false
		}
		parent = cur
		parentIsHeader = false
		if key < k {
			off = rbLeftOff
		} else {
			off = rbRightOff
		}
		cur = mem.Addr(tc.Load(t.sInChild, cur+w(off)))
	}
	// Initialize the new node (red, leaf).
	tc.Store(t.sInNewInit, node+w(rbKeyOff), key)
	tc.Store(t.sInNewInit, node+w(rbValOff), val)
	tc.Store(t.sInNewInit, node+w(rbLeftOff), nilPtr)
	tc.Store(t.sInNewInit, node+w(rbRightOff), nilPtr)
	tc.Store(t.sInNewInit, node+w(rbParentOff), uint64(parent))
	tc.Store(t.sInNewInit, node+w(rbColorOff), rbRed)
	if parentIsHeader {
		tc.Store(t.sInSetRoot, tree+w(rbRootOff), uint64(node))
	} else {
		tc.Store(t.sInLinkChild, parent+w(off), uint64(node))
	}
	t.fixup(tc, tree, node)
	return true
}

// rbNode accessors used by fixup, all transactional.
func (t *RBTree) color(tc Ctx, n mem.Addr) uint64 {
	if n == nilPtr {
		return rbBlack
	}
	return tc.Load(t.sInColorLoad, n+w(rbColorOff))
}

func (t *RBTree) setColor(tc Ctx, n mem.Addr, c uint64) {
	tc.Store(t.sInColorStore, n+w(rbColorOff), c)
}

func (t *RBTree) parentOf(tc Ctx, n mem.Addr) mem.Addr {
	return mem.Addr(tc.Load(t.sInParentLoad, n+w(rbParentOff)))
}

func (t *RBTree) childOf(tc Ctx, n mem.Addr, off int) mem.Addr {
	return mem.Addr(tc.Load(t.sInChildLoad, n+w(off)))
}

// rotate performs a left (dir=rbLeftOff) or right rotation around x.
func (t *RBTree) rotate(tc Ctx, tree, x mem.Addr, dir int) {
	other := rbLeftOff + rbRightOff - dir
	y := t.childOf(tc, x, other)
	yc := t.childOf(tc, y, dir)
	tc.Store(t.sInChildStore, x+w(other), uint64(yc))
	if yc != nilPtr {
		tc.Store(t.sInParentStore, yc+w(rbParentOff), uint64(x))
	}
	xp := t.parentOf(tc, x)
	tc.Store(t.sInParentStore, y+w(rbParentOff), uint64(xp))
	if xp == nilPtr {
		tc.Store(t.sInSetRoot, tree+w(rbRootOff), uint64(y))
	} else if t.childOf(tc, xp, rbLeftOff) == x {
		tc.Store(t.sInChildStore, xp+w(rbLeftOff), uint64(y))
	} else {
		tc.Store(t.sInChildStore, xp+w(rbRightOff), uint64(y))
	}
	tc.Store(t.sInChildStore, y+w(dir), uint64(x))
	tc.Store(t.sInParentStore, x+w(rbParentOff), uint64(y))
	tc.Compute(10)
}

// fixup restores red-black invariants after inserting the red node z.
func (t *RBTree) fixup(tc Ctx, tree, z mem.Addr) {
	for {
		p := t.parentOf(tc, z)
		if p == nilPtr || t.color(tc, p) == rbBlack {
			break
		}
		g := t.parentOf(tc, p)
		if g == nilPtr {
			break
		}
		var uncleOff, dir int
		if t.childOf(tc, g, rbLeftOff) == p {
			uncleOff, dir = rbRightOff, rbLeftOff
		} else {
			uncleOff, dir = rbLeftOff, rbRightOff
		}
		u := t.childOf(tc, g, uncleOff)
		if t.color(tc, u) == rbRed {
			t.setColor(tc, p, rbBlack)
			t.setColor(tc, u, rbBlack)
			t.setColor(tc, g, rbRed)
			z = g
			continue
		}
		if t.childOf(tc, p, uncleOff) == z {
			z = p
			t.rotate(tc, tree, z, dir)
			p = t.parentOf(tc, z)
		}
		t.setColor(tc, p, rbBlack)
		t.setColor(tc, g, rbRed)
		t.rotate(tc, tree, g, uncleOff)
	}
	root := mem.Addr(tc.Load(t.sInRoot, tree+w(rbRootOff)))
	if root != nilPtr && t.color(tc, root) == rbRed {
		// Only write when actually red: an unconditional store here would
		// put the root's line in every insert's write set and abort every
		// concurrent traversal.
		t.setColor(tc, root, rbBlack)
	}
}

// SeedRBTree inserts keys directly in memory (setup, untimed) as a
// balanced BST built from the sorted keys, colored black.
func SeedRBTree(m *htm.Machine, tree mem.Addr, keys []uint64, val func(k uint64) uint64) {
	var build func(lo, hi int, parent mem.Addr) mem.Addr
	build = func(lo, hi int, parent mem.Addr) mem.Addr {
		if lo > hi {
			return nilPtr
		}
		mid := (lo + hi) / 2
		n := m.Alloc.AllocLines(1)
		m.Mem.Store(n+w(rbKeyOff), keys[mid])
		m.Mem.Store(n+w(rbValOff), val(keys[mid]))
		m.Mem.Store(n+w(rbParentOff), uint64(parent))
		m.Mem.Store(n+w(rbColorOff), rbBlack)
		m.Mem.Store(n+w(rbLeftOff), uint64(build(lo, mid-1, n)))
		m.Mem.Store(n+w(rbRightOff), uint64(build(mid+1, hi, n)))
		return n
	}
	m.Mem.Store(tree+w(rbRootOff), uint64(build(0, len(keys)-1, nilPtr)))
}

// RBKeys walks the tree directly from memory in key order (untimed).
func RBKeys(m *htm.Machine, tree mem.Addr) []uint64 {
	var out []uint64
	var walk func(n mem.Addr)
	walk = func(n mem.Addr) {
		if n == nilPtr {
			return
		}
		walk(mem.Addr(m.Mem.Load(n + w(rbLeftOff))))
		out = append(out, m.Mem.Load(n+w(rbKeyOff)))
		walk(mem.Addr(m.Mem.Load(n + w(rbRightOff))))
	}
	walk(mem.Addr(m.Mem.Load(tree + w(rbRootOff))))
	return out
}

// RBDepthOK verifies no red-red parent/child pairs exist and the tree is
// a valid BST (untimed invariant check for property tests).
func RBDepthOK(m *htm.Machine, tree mem.Addr) bool {
	ok := true
	var walk func(n mem.Addr, lo, hi uint64)
	walk = func(n mem.Addr, lo, hi uint64) {
		if n == nilPtr || !ok {
			return
		}
		k := m.Mem.Load(n + w(rbKeyOff))
		if k < lo || k > hi {
			ok = false
			return
		}
		if m.Mem.Load(n+w(rbColorOff)) == rbRed {
			l := mem.Addr(m.Mem.Load(n + w(rbLeftOff)))
			r := mem.Addr(m.Mem.Load(n + w(rbRightOff)))
			if (l != nilPtr && m.Mem.Load(l+w(rbColorOff)) == rbRed) ||
				(r != nilPtr && m.Mem.Load(r+w(rbColorOff)) == rbRed) {
				ok = false
				return
			}
		}
		if k > 0 {
			walk(mem.Addr(m.Mem.Load(n+w(rbLeftOff))), lo, k-1)
		}
		walk(mem.Addr(m.Mem.Load(n+w(rbRightOff))), k+1, hi)
	}
	walk(mem.Addr(m.Mem.Load(tree+w(rbRootOff))), 0, ^uint64(0))
	return ok
}
