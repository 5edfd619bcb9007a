package dsa

import (
	"fmt"

	"repro/internal/prog"
)

// Graph is the result of analyzing a function or an atomic block: a
// mapping from pointer values and access sites to their DSNodes.
type Graph struct {
	// Root is the analyzed function (for AnalyzeAtomic, the atomic
	// block's root function).
	Root *Func

	a *analysis
}

// Func aliases prog.Func for doc clarity in this package's API.
type Func = prog.Func

// analysis carries the mutable state of one analysis run.
type analysis struct {
	u       *universe
	val     map[*prog.Value]*Node
	globals map[*prog.Value]*Node
	sites   map[*prog.Site]*Node
	visited map[*prog.Func]bool
}

func newAnalysis() *analysis {
	return &analysis{
		u:       &universe{},
		val:     make(map[*prog.Value]*Node),
		globals: make(map[*prog.Value]*Node),
		sites:   make(map[*prog.Site]*Node),
		visited: make(map[*prog.Func]bool),
	}
}

// nodeOf returns (creating if needed) the target node of a pointer value.
func (a *analysis) nodeOf(v *prog.Value) *Node {
	if v == nil {
		panic("dsa: nil value")
	}
	if v.Kind == prog.ValGlobal {
		n, ok := a.globals[v]
		if !ok {
			n = a.u.newNode(v.Name)
			a.globals[v] = n
		}
		return n.find()
	}
	n, ok := a.val[v]
	if !ok {
		n = a.u.newNode(v.Name)
		a.val[v] = n
	}
	return n.find()
}

// localConstraints applies the intraprocedural DSA constraints of f.
func (a *analysis) localConstraints(f *prog.Func) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind != prog.InstrAccess {
				continue
			}
			s := in.Site
			base := a.nodeOf(s.Ptr)
			a.sites[s] = base
			if s.Def != nil {
				// v = load p->f : target(p).f ~ target(v)
				a.u.unify(a.u.fieldNode(base, s.Field), a.nodeOf(s.Def))
			}
			if s.StoredVal != nil {
				// store p->f = w : target(p).f ~ target(w)
				a.u.unify(a.u.fieldNode(base, s.Field), a.nodeOf(s.StoredVal))
			}
		}
	}
	// Derived values: &p->f aliases p's node; phis merge their inputs.
	for _, v := range f.Values {
		if v.Kind == prog.ValField {
			a.u.unify(a.nodeOf(v), a.nodeOf(v.Base))
		}
	}
	for _, pb := range f.PhiBinds {
		a.u.unify(a.nodeOf(pb.Phi), a.nodeOf(pb.Val))
	}
}

// AnalyzeAtomic runs DSA over the whole call tree of an atomic block in a
// single universe: constraints of every reachable function are applied,
// and each call edge unifies actuals with formals and the result with the
// callee's return value. The resulting graph maps every site of every
// reachable function to its node in the atomic block's context.
func AnalyzeAtomic(ab *prog.AtomicBlock) *Graph {
	if !ab.Root.Mod.Finalized() {
		panic("dsa: module not finalized")
	}
	a := newAnalysis()
	for _, f := range prog.ReachableFuncs(ab.Root) {
		a.localConstraints(f)
	}
	for _, f := range prog.ReachableFuncs(ab.Root) {
		for _, call := range f.Calls {
			a.bindCall(call)
		}
	}
	return &Graph{Root: ab.Root, a: a}
}

// bindCall unifies a call's actuals with the callee's formals (shared
// universe — the context-collapsing variant used inside one atomic block).
func (a *analysis) bindCall(call *prog.Instr) {
	g := call.Callee
	for i, arg := range call.Args {
		a.u.unify(a.nodeOf(arg), a.nodeOf(g.Params[i]))
	}
	if call.Result != nil {
		if g.Ret == nil {
			panic(fmt.Sprintf("dsa: call to %s uses a result but callee returns none", g.Name))
		}
		a.u.unify(a.nodeOf(call.Result), a.nodeOf(g.Ret))
	}
}

// AnalyzeFunc runs the local + bottom-up stages for one function: callee
// graphs are cloned into the caller at each call site, so distinct call
// sites keep distinct structures (context sensitivity across sites).
// Sites of the function itself are mapped; callee sites are not (they
// belong to the callees' own local tables).
func AnalyzeFunc(f *prog.Func) *Graph {
	if !f.Mod.Finalized() {
		panic("dsa: module not finalized")
	}
	a := newAnalysis()
	a.analyzeBottomUp(f)
	return &Graph{Root: f, a: a}
}

// analyzeBottomUp applies f's local constraints, then inlines a clone of
// each callee's (recursively analyzed) graph at each call site.
func (a *analysis) analyzeBottomUp(f *prog.Func) {
	a.localConstraints(f)
	for _, call := range f.Calls {
		sub := newAnalysis()
		sub.u = a.u             // one ID space for determinism
		sub.globals = a.globals // globals are one node per analysis
		sub.analyzeBottomUp(call.Callee)
		clones := make(map[*Node]*Node)
		var cloneNode func(n *Node) *Node
		cloneNode = func(n *Node) *Node {
			n = n.find()
			if c, ok := clones[n]; ok {
				return c
			}
			// Globals are shared, not cloned. Every match returns the same n,
			// so the map's order cannot matter.
			for _, gn := range a.globals {
				if gn.find() == n {
					return n
				}
			}
			c := a.u.newNode("")
			for l := range n.labels {
				c.labels[l] = struct{}{}
			}
			clones[n] = c
			// Clone fields in sorted order: each recursive cloneNode call
			// allocates fresh ids, so visiting the map directly would
			// number the cloned subgraph differently from run to run.
			for _, fld := range sortedFields(n.fields) {
				c.fields[fld] = cloneNode(n.fields[fld])
			}
			return c
		}
		g := call.Callee
		for i, arg := range call.Args {
			a.u.unify(a.nodeOf(arg), cloneNode(sub.nodeOf(g.Params[i])))
		}
		if call.Result != nil && g.Ret != nil {
			a.u.unify(a.nodeOf(call.Result), cloneNode(sub.nodeOf(g.Ret)))
		}
	}
}

// NodeOf returns the DSNode accessed by site s (its pointer operand's
// target). It panics if s was not part of the analyzed region.
func (g *Graph) NodeOf(s *prog.Site) *Node {
	n, ok := g.a.sites[s]
	if !ok {
		panic(fmt.Sprintf("dsa: site %v not in analyzed region", s))
	}
	return n.find()
}

// Covers reports whether site s was part of the analyzed region.
func (g *Graph) Covers(s *prog.Site) bool {
	_, ok := g.a.sites[s]
	return ok
}
