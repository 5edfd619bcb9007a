package simds

import (
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// BPTree is a B+ tree used as a priority queue (tsp's task queue: the
// paper's port of the STX B+ tree with the contended size field removed).
// PopMin always lands on the left-most leaf — the "most contended object"
// the staggered runtime discovers — while inserts scatter across leaves.
//
// Layout:
//
//	header:   1 line:  [root, height]
//	leaf:     1 line:  [n, next, key0..key5]
//	internal: 2 lines: [n, key0..key5, _, child0..child6]
//
// Keys are uint64; values are encoded in the keys (priority<<32|payload),
// so the queue pops in ascending priority order. Duplicate keys allowed.
type BPTree struct {
	FnInsert *prog.Func
	FnPop    *prog.Func

	// Insert sites.
	sInRoot, sInHeight, sInN, sInKey, sInChild            *prog.Site
	sInLeafN, sInLeafKey, sInStoreKey, sInStoreN          *prog.Site
	sInLeafNext, sInStoreNext, sInStoreChild, sInSetRootH *prog.Site
	sInSetRoot                                            *prog.Site
	sInLeafPtr                                            *prog.Site
	sInStoreIntKey, sInStoreIntN                          *prog.Site
	// Pop sites.
	sPpRoot, sPpN, sPpNext         *prog.Site
	sPpKey, sPpStoreKey, sPpStoreN *prog.Site
}

const (
	bptCap = 6 // max keys per node

	bptRootOff     = 0
	bptHeightOff   = 1
	bptHeadLeafOff = 2

	leafNOff    = 0
	leafNextOff = 1
	leafKeyOff  = 2 // keys 2..7

	intNOff     = 0
	intKeyOff   = 1 // keys 1..6
	intChildOff = 8 // children 8..14
)

// DeclareBPTree registers the tree's static code in m.
func DeclareBPTree(m *prog.Module) *BPTree {
	t := &BPTree{}

	// The STX B+ tree has distinct inner_node and leaf_node types, so DSA
	// keeps inner nodes and leaves in separate DSNodes: the descent loop
	// walks inner nodes via "child" edges (a recursive self-node), and
	// the last level loads a leaf pointer via the distinct "leafchild"
	// field. The first leaf access is therefore its own anchor — exactly
	// the advisory locking point that serializes only the contended leaf
	// (the queue head) while descents proceed in parallel.
	t.FnInsert = m.NewFunc("bpt_insert", "treePtr")
	{
		f := t.FnInsert
		entry, loop, exit := f.Entry(), f.NewBlock("loop"), f.NewBlock("exit")
		entry.To(loop, exit) // height may be 0: root is the leaf
		loop.To(loop, exit)
		root, sRoot := entry.LoadPtr("root", f.Param(0), "root")
		t.sInRoot = sRoot
		t.sInHeight = entry.Load(f.Param(0), "height")
		cur := f.Phi("inner")
		f.Bind(cur, root)
		t.sInN = loop.Load(cur, "n")
		t.sInKey = loop.Load(cur, "key")
		child, sChild := loop.LoadPtr("child", cur, "child")
		t.sInChild = sChild
		f.Bind(cur, child)
		leaf, sLeaf := loop.LoadPtr("leaf", cur, "leafchild")
		t.sInLeafPtr = sLeaf
		lv := f.Phi("leafv")
		f.Bind(lv, leaf)
		t.sInLeafN = exit.Load(lv, "n")
		t.sInLeafKey = exit.Load(lv, "key")
		t.sInStoreKey = exit.Store(lv, "key")
		t.sInStoreN = exit.Store(lv, "n")
		t.sInLeafNext = exit.Load(lv, "next")
		t.sInStoreNext = exit.Store(lv, "next")
		// Split propagation writes internal nodes through their own
		// sites: reusing the leaf-store sites for writeInternal would
		// attribute inner-node stores to the leaf DSNode.
		t.sInStoreIntKey = exit.Store(cur, "key")
		t.sInStoreChild = exit.Store(cur, "child")
		t.sInStoreIntN = exit.Store(cur, "n")
		t.sInSetRoot = exit.StorePtr(f.Param(0), "root", cur)
		t.sInSetRootH = exit.Store(f.Param(0), "height")
	}

	// PopMin is O(1), as the paper notes for its tsp queue: the header
	// keeps a pointer to the permanent left-most leaf (splits keep the
	// lower half in place, so it never changes), and pop walks the leaf
	// chain past emptied leaves. The first leaf access in the loop is the
	// leaf DSNode's anchor — the ALP that serializes the queue head.
	t.FnPop = m.NewFunc("bpt_pop", "treePtr")
	{
		f := t.FnPop
		entry, loop, exit := f.Entry(), f.NewBlock("loop"), f.NewBlock("exit")
		entry.To(loop)
		loop.To(loop, exit)
		head, sHead := entry.LoadPtr("headleaf", f.Param(0), "headleaf")
		t.sPpRoot = sHead
		lv := f.Phi("leafv")
		f.Bind(lv, head)
		t.sPpN = loop.Load(lv, "n")
		next, sNext := loop.LoadPtr("next", lv, "next")
		t.sPpNext = sNext
		f.Bind(lv, next)
		t.sPpKey = exit.Load(lv, "key")
		t.sPpStoreKey = exit.Store(lv, "key")
		t.sPpStoreN = exit.Store(lv, "n")
	}
	return t
}

// NewBPTree allocates an empty tree: header plus one empty root leaf.
func NewBPTree(m *htm.Machine) mem.Addr {
	h := m.Alloc.AllocLines(1)
	leaf := m.Alloc.AllocLines(1)
	m.Mem.Store(h+w(bptRootOff), uint64(leaf))
	m.Mem.Store(h+w(bptHeightOff), 0)
	m.Mem.Store(h+w(bptHeadLeafOff), uint64(leaf))
	return h
}

// Alloc2Lines is the node allocator signature insert needs: it must hand
// back thread-private line-aligned space (1 line for leaves, 2 for
// internal nodes).
type Alloc2Lines func(lines int) mem.Addr

// Insert adds key to the tree. alloc provides fresh node space; nodes are
// written transactionally before becoming reachable.
func (t *BPTree) Insert(tc Ctx, tree mem.Addr, key uint64, alloc Alloc2Lines) {
	root := mem.Addr(tc.Load(t.sInRoot, tree+w(bptRootOff)))
	height := int(tc.Load(t.sInHeight, tree+w(bptHeightOff)))

	// Descend, remembering the path for split propagation.
	path := make([]bptFrame, 0, 8)
	node := root
	for lvl := height; lvl > 0; lvl-- {
		n := int(tc.Load(t.sInN, node+w(intNOff)))
		i := 0
		for i < n {
			k := tc.Load(t.sInKey, node+w(intKeyOff+i))
			tc.Compute(2)
			if key < k {
				break
			}
			i++
		}
		path = append(path, bptFrame{node, i})
		site := t.sInChild
		if lvl == 1 {
			site = t.sInLeafPtr // typed leaf pointer: the leaf anchor's parent edge
		}
		node = mem.Addr(tc.Load(site, node+w(intChildOff+i)))
	}

	// Insert into the leaf, keeping keys sorted.
	n := int(tc.Load(t.sInLeafN, node+w(leafNOff)))
	keys := make([]uint64, 0, bptCap+1)
	for i := 0; i < n; i++ {
		keys = append(keys, tc.Load(t.sInLeafKey, node+w(leafKeyOff+i)))
	}
	pos := 0
	for pos < n && keys[pos] <= key {
		pos++
	}
	keys = append(keys, 0)
	copy(keys[pos+1:], keys[pos:])
	keys[pos] = key
	tc.Compute(8)

	if len(keys) <= bptCap {
		for i := pos; i < len(keys); i++ {
			tc.Store(t.sInStoreKey, node+w(leafKeyOff+i), keys[i])
		}
		tc.Store(t.sInStoreN, node+w(leafNOff), uint64(len(keys)))
		return
	}

	// Leaf split: right sibling takes the upper half.
	mid := (bptCap + 1) / 2
	right := alloc(1)
	for i, k := range keys[:mid] {
		tc.Store(t.sInStoreKey, node+w(leafKeyOff+i), k)
	}
	tc.Store(t.sInStoreN, node+w(leafNOff), uint64(mid))
	for i, k := range keys[mid:] {
		tc.Store(t.sInStoreKey, right+w(leafKeyOff+i), k)
	}
	tc.Store(t.sInStoreN, right+w(leafNOff), uint64(len(keys)-mid))
	oldNext := tc.Load(t.sInLeafNext, node+w(leafNextOff))
	tc.Store(t.sInStoreNext, right+w(leafNextOff), oldNext)
	tc.Store(t.sInStoreNext, node+w(leafNextOff), uint64(right))
	t.propagate(tc, tree, path, keys[mid], right, height, alloc)
}

// bptFrame records one step of an insert descent.
type bptFrame struct {
	node mem.Addr
	idx  int
}

// propagate inserts (sep, rightChild) into the parent frames, splitting
// internal nodes as needed and growing the root when the path runs out.
func (t *BPTree) propagate(tc Ctx, tree mem.Addr, path []bptFrame,
	sep uint64, rightChild mem.Addr, height int, alloc Alloc2Lines) {
	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		p := path[lvl]
		n := int(tc.Load(t.sInN, p.node+w(intNOff)))
		keys := make([]uint64, n, bptCap+1)
		kids := make([]uint64, n+1, bptCap+2)
		for i := 0; i < n; i++ {
			keys[i] = tc.Load(t.sInKey, p.node+w(intKeyOff+i))
		}
		for i := 0; i <= n; i++ {
			kids[i] = tc.Load(t.sInChild, p.node+w(intChildOff+i))
		}
		keys = append(keys, 0)
		copy(keys[p.idx+1:], keys[p.idx:])
		keys[p.idx] = sep
		kids = append(kids, 0)
		copy(kids[p.idx+2:], kids[p.idx+1:])
		kids[p.idx+1] = uint64(rightChild)
		tc.Compute(8)

		if len(keys) <= bptCap {
			writeInternal(tc, t, p.node, keys, kids)
			return
		}
		// Internal split: median key moves up.
		mid := len(keys) / 2
		sep = keys[mid]
		right := alloc(2)
		writeInternal(tc, t, p.node, keys[:mid], kids[:mid+1])
		writeInternal(tc, t, right, keys[mid+1:], kids[mid+1:])
		rightChild = right
	}
	// Root split: a new root with one key and two children.
	oldRoot := mem.Addr(tc.Load(t.sInRoot, tree+w(bptRootOff)))
	newRoot := alloc(2)
	writeInternal(tc, t, newRoot, []uint64{sep}, []uint64{uint64(oldRoot), uint64(rightChild)})
	tc.Store(t.sInSetRoot, tree+w(bptRootOff), uint64(newRoot))
	tc.Store(t.sInSetRootH, tree+w(bptHeightOff), uint64(height+1))
}

func writeInternal(tc Ctx, t *BPTree, node mem.Addr, keys, kids []uint64) {
	for i, k := range keys {
		tc.Store(t.sInStoreIntKey, node+w(intKeyOff+i), k)
	}
	for i, c := range kids {
		tc.Store(t.sInStoreChild, node+w(intChildOff+i), c)
	}
	tc.Store(t.sInStoreIntN, node+w(intNOff), uint64(len(keys)))
}

// PopMin removes and returns the smallest key; ok is false when empty.
// Emptied leaves stay linked (lazy deletion, as in the paper's tsp port
// which dropped the contended size field rather than rebalancing).
func (t *BPTree) PopMin(tc Ctx, tree mem.Addr) (uint64, bool) {
	node := mem.Addr(tc.Load(t.sPpRoot, tree+w(bptHeadLeafOff)))
	// Walk the leaf chain past emptied leaves.
	for node != nilPtr {
		n := int(tc.Load(t.sPpN, node+w(leafNOff)))
		if n > 0 {
			min := tc.Load(t.sPpKey, node+w(leafKeyOff))
			for i := 1; i < n; i++ {
				k := tc.Load(t.sPpKey, node+w(leafKeyOff+i))
				tc.Store(t.sPpStoreKey, node+w(leafKeyOff+i-1), k)
			}
			tc.Store(t.sPpStoreN, node+w(leafNOff), uint64(n-1))
			return min, true
		}
		node = mem.Addr(tc.Load(t.sPpNext, node+w(leafNextOff)))
		tc.Compute(2)
	}
	return 0, false
}

// BPTCount counts keys directly from memory (untimed verification).
func BPTCount(m *htm.Machine, tree mem.Addr) int {
	node := mem.Addr(m.Mem.Load(tree + w(bptRootOff)))
	height := int(m.Mem.Load(tree + w(bptHeightOff)))
	for lvl := height; lvl > 0; lvl-- {
		node = mem.Addr(m.Mem.Load(node + w(intChildOff)))
	}
	total := 0
	for node != nilPtr {
		total += int(m.Mem.Load(node + w(leafNOff)))
		node = mem.Addr(m.Mem.Load(node + w(leafNextOff)))
	}
	return total
}
