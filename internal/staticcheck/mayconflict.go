package staticcheck

import (
	"fmt"
	"sort"

	"repro/internal/anchor"
	"repro/internal/dsa"
	"repro/internal/prog"
)

// This file is the static conflict-prediction layer: checks (c) and (d).
//
//	(c) lock-sufficiency — every pair of atomic blocks that MAY conflict
//	    (both reach the same global conflict class, at least one through
//	    a store) must be coverable by a shared advisory lock: on every
//	    path of each block that reaches a conflicting site, an
//	    ALP-instrumented anchor on that class executes first. A failure
//	    means the staggering mechanism has no locking point to arm for
//	    that conflict — its aborts are unpreventable — and is reported
//	    with a minimal counterexample path like the anchor-scope check.
//	(d) lock-precision — an ALP whose conflict class is never stored to
//	    by any atomic block can only serialize provably conflict-free
//	    (read-only) accesses: the advisory lock costs concurrency and
//	    prevents nothing. Flagged unless waived (intentional coarsening).
//
// Both checks consume the may-conflict matrix (BuildMayConflict). The
// matrix is also the static half of the conflict-containment check:
// every dynamically observed conflicting site pair must fall inside it
// (CheckConflictPairs).
//
// Soundness caveats, also documented in DESIGN.md:
//
//   - Sufficiency is about the INSTRUMENTATION, not the policy: it
//     proves an armable locking point exists on every conflicting path,
//     not that the runtime's activation policy arms it.
//   - Conflict classes are per-atomic-block DSA nodes identified across
//     blocks through shared sites, shared globals, and a field-path
//     closure. Accesses the IR does not model (runtime lock words, NT
//     stores, site-0 accesses) are outside the matrix; the dynamic
//     containment check skips pairs where either side is unattributed.
//   - The matrix is a may-analysis: unification makes it safely coarse
//     (extra pairs), never unsafely narrow — the property the dynamic
//     cross-validation tests empirically.

// Check names for the conflict-prediction layer (see staticcheck.go for
// checks (a) and (b)).
const (
	CheckSufficiency = "lock-sufficiency"
	CheckPrecision   = "lock-precision"
	CheckContainment = "conflict-containment"
)

// MayConflict is the static may-conflict matrix of one compiled module:
// global conflict classes (DSA nodes unified across atomic blocks) with
// per-block access and write sets.
type MayConflict struct {
	mod *prog.Module

	// siteClass maps (atomic block ID, site ID) to the global class root.
	siteClass map[int]map[uint32]string
	// siteExtra maps (atomic block ID, site ID) to secondary class
	// memberships: the degenerate-predecessor rule lets a linking store
	// also hit the owner object its traversal started from.
	siteExtra map[int]map[uint32][]string
	// classSites maps class root -> atomic block ID -> sorted site IDs.
	classSites map[string]map[int][]uint32
	// classWrites maps class root -> atomic block ID -> has a store site.
	classWrites map[string]map[int]bool
	// labels maps class roots to a human-readable description.
	labels map[string]string
	// roots lists every class root in sorted order.
	roots []string
}

// abNode is one per-atomic-block DSA node enrolled in the global class
// union-find.
type abNode struct {
	ab int
	n  *dsa.Node
}

func classKey(ab int, n *dsa.Node) string {
	return fmt.Sprintf("ab%d/ds%d", ab, n.ID())
}

// BuildMayConflict computes the global conflict classes and the per-pair
// may-conflict matrix of a compiled module.
//
// Classes start as (atomic block, DSNode) pairs and are unified four
// ways: two blocks reaching the same static site lock the same structure
// there (shared sites); each
// module global is one object in every block's universe (shared roots);
// shape hints (prog.Module.Shapes) contribute linkage facts from outside
// the atomic blocks; and a fixpoint closure merges the same-named field
// targets of merged classes, so a structure two blocks reach through
// disjoint code but identical field paths from a shared root still lands
// in one class.
func BuildMayConflict(c *anchor.Compiled) *MayConflict {
	uf := newUnionFind()
	members := make(map[string][]abNode) // find(key) -> enrolled nodes
	nodeLabel := make(map[string]string)

	enroll := func(ab int, n *dsa.Node) string {
		key := classKey(ab, n)
		if _, ok := nodeLabel[key]; !ok {
			nodeLabel[key] = n.Label()
			root := uf.find(key)
			members[root] = append(members[root], abNode{ab: ab, n: n})
		}
		return key
	}
	union := func(a, b string) {
		ra, rb := uf.find(a), uf.find(b)
		if ra == rb {
			return
		}
		uf.union(ra, rb)
		root := uf.find(ra)
		var merged []abNode
		merged = append(merged, members[ra]...)
		merged = append(merged, members[rb]...)
		delete(members, ra)
		delete(members, rb)
		members[root] = merged
	}

	// Seed 1: per-block site nodes, unified across blocks via shared
	// sites.
	siteKey := make(map[uint32]string)
	for _, ab := range c.Mod.Atomics {
		u := c.Unified[ab]
		if u == nil {
			continue
		}
		for _, e := range u.Entries {
			key := enroll(ab.ID, e.Node)
			if prev, ok := siteKey[e.Site.ID]; ok {
				union(prev, key)
			} else {
				siteKey[e.Site.ID] = key
			}
		}
	}
	// Seed 2: module globals are the shared roots — the same global names
	// one object in every atomic block's universe.
	globalKey := make(map[*prog.Value]string)
	for _, g := range c.Mod.Globals {
		prev := ""
		for _, ab := range c.Mod.Atomics {
			u := c.Unified[ab]
			if u == nil {
				continue
			}
			key := enroll(ab.ID, u.Graph.ValueNode(g))
			if prev != "" {
				union(prev, key)
			}
			prev = key
		}
		globalKey[g] = prev
	}
	// Seed 3: shape hints. A shape function's pointer stores declare the
	// steady-state linkage of a structure (tree.headleaf and
	// inner.leafchild hold the same leaves, for example) — facts induced
	// by constructor and re-linking code outside the atomic blocks, which
	// per-block DSA therefore cannot see. Each hint is analyzed in its
	// own universe, anchored to the shared globals, and its nodes join
	// the closure below like any block's; negative pseudo-block IDs keep
	// their keys disjoint from real atomic blocks, and since no site maps
	// to them they never appear in the projected access sets.
	for i, sf := range c.Mod.Shapes {
		sg := dsa.AnalyzeFunc(sf)
		sid := -(i + 1)
		for _, g := range c.Mod.Globals {
			gk := globalKey[g]
			if gk == "" {
				continue
			}
			union(gk, enroll(sid, sg.ValueNode(g)))
		}
	}

	// Closure: members of one class expose field edges in their own
	// universes; same-named targets of class-mates must unify too, or a
	// list reached as root.head in one block and root.head.next in
	// another would split. Iterate to fixpoint; every visit order is
	// sorted so class identity is reproducible.
	for changed := true; changed; {
		changed = false
		rootOrder := make([]string, 0, len(members))
		for r := range members {
			rootOrder = append(rootOrder, r)
		}
		sort.Strings(rootOrder)
		for _, root := range rootOrder {
			ms := members[root]
			if len(ms) < 2 {
				continue
			}
			sort.Slice(ms, func(i, j int) bool {
				if ms[i].ab != ms[j].ab {
					return ms[i].ab < ms[j].ab
				}
				return ms[i].n.ID() < ms[j].n.ID()
			})
			// Pairwise against the first member is enough: unioning
			// a~b and a~c puts b and c in one class, and the fixpoint
			// loop revisits until nothing merges.
			base := ms[0]
			for _, m := range ms[1:] {
				for _, f := range base.n.Fields() {
					tb, tm := base.n.FieldTarget(f), m.n.FieldTarget(f)
					if tb == nil || tm == nil {
						continue
					}
					ka, kb := enroll(base.ab, tb), enroll(m.ab, tm)
					if uf.find(ka) != uf.find(kb) {
						union(ka, kb)
						changed = true
					}
				}
			}
		}
	}

	// Project the classes onto sites: per-class access and write sets.
	mc := &MayConflict{
		mod:         c.Mod,
		siteClass:   make(map[int]map[uint32]string),
		siteExtra:   make(map[int]map[uint32][]string),
		classSites:  make(map[string]map[int][]uint32),
		classWrites: make(map[string]map[int]bool),
		labels:      make(map[string]string),
	}
	addMember := func(ab int, site uint32, root string, isStore bool) {
		if mc.classSites[root] == nil {
			mc.classSites[root] = make(map[int][]uint32)
			mc.classWrites[root] = make(map[int]bool)
		}
		mc.classSites[root][ab] = append(mc.classSites[root][ab], site)
		if isStore {
			mc.classWrites[root][ab] = true
		}
	}
	for _, ab := range c.Mod.Atomics {
		u := c.Unified[ab]
		if u == nil {
			continue
		}
		bySite := make(map[uint32]string)
		mc.siteClass[ab.ID] = bySite
		for _, e := range u.Entries {
			root := uf.find(classKey(ab.ID, e.Node))
			bySite[e.Site.ID] = root
			addMember(ab.ID, e.Site.ID, root, e.Site.IsStore)
			if _, ok := mc.labels[root]; !ok {
				mc.labels[root] = nodeLabel[classKey(ab.ID, e.Node)]
			}
		}
		// Degenerate-predecessor rule: a store through a SELF-ADVANCING
		// cursor (a phi that re-binds a load of its own field, like a
		// list's cur = cur->next) may also write the object the traversal
		// started from — the list header is the "predecessor cell" when
		// inserting or deleting at the head. The IR keeps owner and cells
		// as distinct DSNodes (the in-loop anchor placement depends on
		// it), so the matrix adds a secondary write membership instead of
		// merging the classes. Provenance gates the rule twice over: a
		// store through a fresh-node parameter never hits the structure
		// the node is later linked into, and a pointer loaded exactly
		// once from an owner's field (a B+ tree leaf from
		// inner.leafchild, say) names a genuine child object, never the
		// owner — only a cursor that walks a chain can degenerate to the
		// chain's origin.
		extra := make(map[uint32][]string)
		for _, e := range u.Entries {
			if !e.Site.IsStore || !selfAdvances(e.Site.Ptr) {
				continue
			}
			for _, o := range ownerOrigins(u.Graph, e.Site.Ptr) {
				if o.Same(e.Node) {
					continue
				}
				root := uf.find(classKey(ab.ID, o))
				if root == bySite[e.Site.ID] || hasString(extra[e.Site.ID], root) {
					continue
				}
				extra[e.Site.ID] = append(extra[e.Site.ID], root)
				addMember(ab.ID, e.Site.ID, root, true)
				if _, ok := mc.labels[root]; !ok {
					mc.labels[root] = o.Label()
				}
			}
		}
		for _, roots := range extra {
			sort.Strings(roots)
		}
		mc.siteExtra[ab.ID] = extra
	}
	for root, perAB := range mc.classSites {
		for ab, sites := range perAB {
			sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
			perAB[ab] = dedupSites(sites)
		}
		mc.roots = append(mc.roots, root)
	}
	sort.Strings(mc.roots)
	return mc
}

// ownerOrigins returns the objects a pointer may have been obtained
// from: for every field load that can produce the value (transitively
// through phis and &p->f derivations), the object the load read. A
// store through such a pointer can target that object itself — the
// degenerate first cell of an intrusive traversal, where "previous
// node" is really the structure header.
func ownerOrigins(g *dsa.Graph, v *prog.Value) []*dsa.Node {
	var out []*dsa.Node
	seen := make(map[*prog.Value]bool)
	var walk func(v *prog.Value)
	walk = func(v *prog.Value) {
		if v == nil || seen[v] {
			return
		}
		seen[v] = true
		switch v.Kind {
		case prog.ValPhi:
			for _, pb := range v.Fn.PhiBinds {
				if pb.Phi == v {
					walk(pb.Val)
				}
			}
		case prog.ValLoad:
			// v = load base->f: the owner is base's target object.
			out = append(out, g.ValueNode(v.Base))
		case prog.ValField:
			walk(v.Base)
		}
	}
	walk(v)
	return out
}

// selfAdvances reports whether v is a self-advancing cursor: its phi
// closure contains a field load whose base is inside the same closure
// (cur = cur->next). Only such a cursor can dynamically point at the
// object its first binding was loaded from — after zero advances, the
// runtime "previous cell" is the traversal's origin.
func selfAdvances(v *prog.Value) bool {
	closure := make(map[*prog.Value]bool)
	var collect func(v *prog.Value)
	collect = func(v *prog.Value) {
		if v == nil || closure[v] {
			return
		}
		closure[v] = true
		switch v.Kind {
		case prog.ValPhi:
			for _, pb := range v.Fn.PhiBinds {
				if pb.Phi == v {
					collect(pb.Val)
				}
			}
		case prog.ValField:
			collect(v.Base)
		}
	}
	collect(v)
	for m := range closure {
		if m.Kind == prog.ValLoad && closure[m.Base] {
			return true
		}
	}
	return false
}

func hasString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func dedupSites(sites []uint32) []uint32 {
	out := sites[:0]
	for i, s := range sites {
		if i == 0 || s != sites[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Classes returns every global conflict class root, sorted.
func (mc *MayConflict) Classes() []string { return mc.roots }

// ClassLabel returns the human-readable description of a class root.
func (mc *MayConflict) ClassLabel(root string) string {
	if l, ok := mc.labels[root]; ok {
		return l
	}
	return root
}

// SiteClass returns the primary class root of a site within an atomic
// block, or "" when the block's table does not cover the site.
func (mc *MayConflict) SiteClass(abID int, site uint32) string {
	return mc.siteClass[abID][site]
}

// SiteClasses returns every class membership of a site within an atomic
// block: the primary class first, then any secondary memberships from
// the degenerate-predecessor rule.
func (mc *MayConflict) SiteClasses(abID int, site uint32) []string {
	primary, ok := mc.siteClass[abID][site]
	if !ok {
		return nil
	}
	return append([]string{primary}, mc.siteExtra[abID][site]...)
}

// Writes reports whether the atomic block has a store site on the class.
func (mc *MayConflict) Writes(root string, abID int) bool {
	return mc.classWrites[root][abID]
}

// WrittenByAny reports whether any atomic block stores to the class.
func (mc *MayConflict) WrittenByAny(root string) bool {
	for _, w := range mc.classWrites[root] {
		if w {
			return true
		}
	}
	return false
}

// touchingABs returns the sorted atomic block IDs with sites on a class.
func (mc *MayConflict) touchingABs(root string) []int {
	out := make([]int, 0, len(mc.classSites[root]))
	for ab := range mc.classSites[root] {
		out = append(out, ab)
	}
	sort.Ints(out)
	return out
}

// MayConflictPair reports whether atomic blocks a and b (a == b models
// two threads in the same block) can conflict at all: they share a
// class one of them stores to.
func (mc *MayConflict) MayConflictPair(a, b int) bool {
	return len(mc.ConflictClasses(a, b)) > 0
}

// ConflictClasses returns the sorted class roots on which atomic blocks
// a and b may conflict: both access the class and at least one of them
// through a store.
func (mc *MayConflict) ConflictClasses(a, b int) []string {
	var out []string
	for _, root := range mc.roots {
		sa, sb := mc.classSites[root][a], mc.classSites[root][b]
		if len(sa) == 0 || len(sb) == 0 {
			continue
		}
		if mc.classWrites[root][a] || mc.classWrites[root][b] {
			out = append(out, root)
		}
	}
	return out
}

// Contains reports whether a dynamically observed conflicting site pair
// falls inside the matrix: the sites share a global class membership and
// at least one of the two blocks statically stores to that class. The
// second return value explains a false result.
func (mc *MayConflict) Contains(ab1 int, s1 uint32, ab2 int, s2 uint32) (bool, string) {
	cs1 := mc.SiteClasses(ab1, s1)
	if cs1 == nil {
		return false, fmt.Sprintf("site %d has no class in atomic block %d", s1, ab1)
	}
	cs2 := mc.SiteClasses(ab2, s2)
	if cs2 == nil {
		return false, fmt.Sprintf("site %d has no class in atomic block %d", s2, ab2)
	}
	shared := false
	for _, c1 := range cs1 {
		if !hasString(cs2, c1) {
			continue
		}
		shared = true
		if mc.classWrites[c1][ab1] || mc.classWrites[c1][ab2] {
			return true, ""
		}
	}
	if !shared {
		return false, fmt.Sprintf("sites resolve to distinct classes %s and %s — the class unification missed an alias",
			mc.ClassLabel(cs1[0]), mc.ClassLabel(cs2[0]))
	}
	return false, fmt.Sprintf("class %s is read-only in both blocks — the write-set inference missed a store",
		mc.ClassLabel(cs1[0]))
}

// checkSufficiency is check (c). For every atomic block and every class
// it touches that some block (possibly itself) stores to, every
// occurrence of every site on that class must execute an
// ALP-instrumented anchor of the same class first — the site itself, or
// an ALP occurrence that must-precede it on all paths. Violations carry
// the witnessing writer block and a minimal counterexample path.
func checkSufficiency(c *anchor.Compiled, mc *MayConflict) []Violation {
	var out []Violation
	for _, ab := range c.Mod.Atomics {
		u := c.Unified[ab]
		if u == nil {
			continue
		}
		occs := accessOccurrences(ab)
		// Group this block's ALP occurrences by class (every membership:
		// an advisory lock on a class staggers all of that class's
		// conflicts, whichever membership put the site there).
		alpByClass := make(map[string][]occurrence)
		for _, o := range occs {
			if int(o.site.ID) < len(c.IsALP) && c.IsALP[o.site.ID] {
				for _, root := range mc.SiteClasses(ab.ID, o.site.ID) {
					alpByClass[root] = append(alpByClass[root], o)
				}
			}
		}
		reported := make(map[uint32]bool) // one violation per site
		for _, o := range occs {
			for _, root := range mc.SiteClasses(ab.ID, o.site.ID) {
				if reported[o.site.ID] {
					break
				}
				writer := conflictWitness(mc, root, ab.ID)
				if writer == 0 {
					continue // class never stored to: no conflict to prevent
				}
				if int(o.site.ID) < len(c.IsALP) && c.IsALP[o.site.ID] {
					continue // the site's own ALP covers it
				}
				covered := false
				var nearest *occurrence
				for i, a := range alpByClass[root] {
					if mustPrecede(a, o) {
						covered = true
						break
					}
					if nearest == nil {
						nearest = &alpByClass[root][i]
					}
				}
				if covered {
					continue
				}
				reported[o.site.ID] = true
				v := Violation{Check: CheckSufficiency, AB: ab.ID, Site: o.site.ID,
					Msg: fmt.Sprintf("site (%s) may conflict on class %s (stored to by atomic block %d) but no ALP on that class is on all paths to it: the advisory lock cannot stagger this conflict",
						o.site, mc.ClassLabel(root), writer),
					Path: coverCounterexample(nearest, o)}
				out = append(out, v)
			}
		}
	}
	return out
}

// conflictWitness returns the lowest atomic block ID that stores to the
// class and pairs with abID (any writer conflicts with any toucher), or
// 0 when the class is never written.
func conflictWitness(mc *MayConflict, root string, abID int) int {
	if mc.classWrites[root][abID] {
		return abID
	}
	for _, ab := range mc.touchingABs(root) {
		if mc.classWrites[root][ab] {
			return ab
		}
	}
	return 0
}

// occurrence is one inlined appearance of a site in an atomic block's
// call tree: the chain of call instructions leading to its function.
type occurrence struct {
	chain []*prog.Instr
	site  *prog.Site
}

// accessOccurrences enumerates every inlined occurrence of every access
// site in the atomic block's call tree.
func accessOccurrences(ab *prog.AtomicBlock) []occurrence {
	var out []occurrence
	var walk func(f *prog.Func, chain []*prog.Instr)
	walk = func(f *prog.Func, chain []*prog.Instr) {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Kind {
				case prog.InstrAccess:
					out = append(out, occurrence{chain: append([]*prog.Instr(nil), chain...), site: in.Site})
				case prog.InstrCall:
					walk(in.Callee, append(chain, in))
				}
			}
		}
	}
	walk(ab.Root, nil)
	return out
}

// mustPrecede reports whether occurrence o1 executes before o2 on EVERY
// path that reaches o2. At the first differing call-chain frame, o1's
// instruction must dominate o2's (both frames belong to the same
// function because the shared prefix pins the same inlined context);
// deeper frames of o1's chain must be unavoidable within their callee,
// else entering the call does not imply reaching o1.
func mustPrecede(o1, o2 occurrence) bool {
	s1 := append(append([]*prog.Instr(nil), o1.chain...), o1.site.Instr)
	s2 := append(append([]*prog.Instr(nil), o2.chain...), o2.site.Instr)
	i := 0
	for i < len(s1) && i < len(s2) && s1[i] == s2[i] {
		i++
	}
	if i >= len(s1) || i >= len(s2) {
		return false
	}
	x, y := s1[i], s2[i]
	if x.Block.Fn != y.Block.Fn {
		return false
	}
	if !prog.InstrDominates(x, y) {
		return false
	}
	for k := i + 1; k < len(s1); k++ {
		if !alwaysExecutes(s1[k]) {
			return false
		}
	}
	return true
}

// alwaysExecutes reports whether in runs on every invocation of its
// function: its block dominates every sink (no-successor) block, so all
// terminating paths pass through it.
func alwaysExecutes(in *prog.Instr) bool {
	f := in.Block.Fn
	sinks := 0
	for _, b := range f.Blocks {
		if len(b.Succs) != 0 {
			continue
		}
		sinks++
		if !in.Block.Dominates(b) {
			return false
		}
	}
	// A function with no sink block never returns; only its entry block
	// is certain to run.
	return sinks > 0 || in.Block == f.Entry()
}

// unionFind over string keys.
type unionFind struct{ parent map[string]string }

func newUnionFind() *unionFind { return &unionFind{parent: make(map[string]string)} }

func (u *unionFind) find(k string) string {
	p, ok := u.parent[k]
	if !ok || p == k {
		return k
	}
	root := u.find(p)
	u.parent[k] = root
	return root
}

// union merges two classes; the lexicographically smaller root wins so
// class identity is deterministic.
func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}

// coverCounterexample builds the minimal counterexample path for a
// sufficiency failure: an execution that reaches the site with no
// same-class ALP executed. With no candidate ALP at all, that is any
// shortest path to the site; with a candidate, it is a shortest path
// that avoids the candidate's block (the dominance-failure witness the
// anchor-scope check also produces).
func coverCounterexample(nearest *occurrence, o occurrence) []string {
	var path []string
	for _, call := range o.chain {
		path = append(path, fmt.Sprintf("%s: call %s", call.Block.Name, call.Callee.Name))
	}
	target := o.site.Instr.Block
	fn := o.site.Fn
	if nearest != nil && nearest.site.Fn == fn {
		if p := pathAvoiding(fn, nearest.site.Instr.Block, target); p != nil {
			return append(path, p...)
		}
	}
	return append(path, shortestPathTo(fn, target)...)
}

// shortestPathTo returns the block names of a shortest CFG path from
// f's entry to target.
func shortestPathTo(f *prog.Func, target *prog.Block) []string {
	prev := map[*prog.Block]*prog.Block{f.Entry(): nil}
	queue := []*prog.Block{f.Entry()}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if b == target {
			var names []string
			for x := target; x != nil; x = prev[x] {
				names = append(names, x.Name)
			}
			for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
				names[i], names[j] = names[j], names[i]
			}
			return names
		}
		for _, s := range b.Succs {
			if _, seen := prev[s]; !seen {
				prev[s] = b
				queue = append(queue, s)
			}
		}
	}
	return nil
}

// checkPrecision is check (d): every ALP anchor whose class is never
// stored to by any atomic block is flagged — its advisory lock can only
// serialize read-only accesses, which HTM runs conflict-free anyway.
// Waivers (site ID -> reason) absorb intentional coarsening; a waiver
// matching no finding is itself reported so the waiver set cannot rot.
func checkPrecision(c *anchor.Compiled, mc *MayConflict, waivers map[uint32]string) []Violation {
	var out []Violation
	used := make(map[uint32]bool)
	for _, root := range mc.roots {
		if mc.WrittenByAny(root) {
			continue
		}
		for _, abID := range mc.touchingABs(root) {
			for _, site := range mc.classSites[root][abID] {
				if int(site) >= len(c.IsALP) || !c.IsALP[site] {
					continue
				}
				if _, ok := waivers[site]; ok {
					used[site] = true
					continue
				}
				sv := c.Mod.SiteByID[site]
				out = append(out, Violation{Check: CheckPrecision, AB: abID, Site: site,
					Msg: fmt.Sprintf("ALP at site (%s) locks class %s which no atomic block ever stores to: the lock serializes atomic blocks %v with provably conflict-free access sets",
						sv, mc.ClassLabel(root), mc.touchingABs(root))})
			}
		}
	}
	stale := make([]uint32, 0, len(waivers))
	for site := range waivers {
		if !used[site] {
			stale = append(stale, site)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, site := range stale {
		out = append(out, Violation{Check: CheckPrecision, Site: site,
			Msg: fmt.Sprintf("stale precision waiver (%q): site %d is not a spurious lock — remove the waiver", waivers[site], site)})
	}
	return out
}

// VerifyConflicts runs the conflict-prediction checks (c) and (d) over
// one compiled module: lock sufficiency for every may-conflicting pair,
// and lock precision against the waiver set (site ID -> reason).
// Violations come back in deterministic order; the matrix is returned
// for rendering and for the dynamic containment check.
func VerifyConflicts(c *anchor.Compiled, waivers map[uint32]string) (*MayConflict, []Violation) {
	mc := BuildMayConflict(c)
	var out []Violation
	out = append(out, checkSufficiency(c, mc)...)
	out = append(out, checkPrecision(c, mc, waivers)...)
	return mc, out
}

// DynPair is one dynamically observed conflicting site pair: the victim
// block and its first access to the conflicting line, and the killer
// block and the access that aborted it. It mirrors the runtime's
// conflict-pair histogram key without importing the runtime.
type DynPair struct {
	VictimAB   int
	VictimSite uint32
	KillerAB   int
	KillerSite uint32
}

// CheckConflictPairs is the static/dynamic containment check: every
// dynamically observed conflicting site pair must fall inside the
// static may-conflict matrix. A violation means the matrix is unsound for this module —
// the class unification or write-set inference missed something the
// hardware then observed for real.
func CheckConflictPairs(mc *MayConflict, pairs []DynPair) []Violation {
	sorted := append([]DynPair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.VictimAB != b.VictimAB {
			return a.VictimAB < b.VictimAB
		}
		if a.VictimSite != b.VictimSite {
			return a.VictimSite < b.VictimSite
		}
		if a.KillerAB != b.KillerAB {
			return a.KillerAB < b.KillerAB
		}
		return a.KillerSite < b.KillerSite
	})
	var out []Violation
	seen := make(map[DynPair]bool)
	for _, p := range sorted {
		if seen[p] {
			continue
		}
		seen[p] = true
		ok, why := mc.Contains(p.VictimAB, p.VictimSite, p.KillerAB, p.KillerSite)
		if ok {
			continue
		}
		out = append(out, Violation{Check: CheckContainment, AB: p.VictimAB, Site: p.VictimSite,
			Msg: fmt.Sprintf("observed conflict (victim ab=%d site=%d, killer ab=%d site=%d) is outside the static may-conflict matrix: %s",
				p.VictimAB, p.VictimSite, p.KillerAB, p.KillerSite, why)})
	}
	return out
}
