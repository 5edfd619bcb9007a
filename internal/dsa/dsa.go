// Package dsa implements the Data Structure Analysis that the
// staggered-transactions compiler pass relies on, after Lattner's DSA
// (used as a black box in the paper).
//
// The analysis is a field-sensitive unification-based points-to analysis:
// every pointer value has a target DSNode; loading or storing a pointer
// field unifies the field's target across all pointers into the node, so
// all nodes of a recursive structure (a list's cells, a tree's internal
// nodes) collapse into one DSNode, while structurally distinct objects
// stay apart.
//
// Two entry points mirror the stages the paper uses:
//
//   - AnalyzeFunc performs the local + bottom-up analysis of a single
//     function (callee graphs are cloned into the caller at call sites),
//     which is what the local anchor tables of Algorithm 1 consume.
//   - AnalyzeAtomic analyzes the whole call tree of one atomic block in a
//     single universe, which is what the per-atomic-block unified anchor
//     tables consume. Unified results are context-sensitive across atomic
//     blocks (each gets its own universe) exactly as in Section 3.3.
package dsa

import (
	"fmt"
	"sort"
)

// Node is a data structure node: an equivalence class of pointer targets.
type Node struct {
	id     int
	parent *Node
	// fields maps field names to target nodes (possibly stale; always
	// canonicalize through find).
	fields map[string]*Node
	labels map[string]struct{}
}

// find returns the canonical representative of n's class.
func (n *Node) find() *Node {
	for n.parent != nil {
		if n.parent.parent != nil {
			n.parent = n.parent.parent // path halving
		}
		n = n.parent
	}
	return n
}

// ID returns a stable identifier for the canonical node.
func (n *Node) ID() int { return n.find().id }

// Label returns a deterministic human-readable description built from the
// value names that target this node.
func (n *Node) Label() string {
	n = n.find()
	names := make([]string, 0, len(n.labels))
	for s := range n.labels {
		names = append(names, s)
	}
	sort.Strings(names)
	if len(names) > 3 {
		names = names[:3]
	}
	return fmt.Sprintf("DS%d{%s}", n.id, join(names))
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// Same reports whether two nodes are in the same class.
func (n *Node) Same(m *Node) bool { return n.find() == m.find() }

// FieldTarget returns the canonical target of the named field edge, or
// nil if the node has no such edge.
func (n *Node) FieldTarget(field string) *Node {
	n = n.find()
	t, ok := n.fields[field]
	if !ok {
		return nil
	}
	t = t.find()
	n.fields[field] = t
	return t
}

// Edges returns the canonical outgoing targets of n, deduplicated, in
// deterministic (id) order.
func (n *Node) Edges() []*Node {
	n = n.find()
	seen := make(map[*Node]bool)
	var out []*Node
	for _, t := range n.fields {
		t = t.find()
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// PointsTo reports whether n has any field edge to m.
func (n *Node) PointsTo(m *Node) bool {
	m = m.find()
	for _, t := range n.Edges() {
		if t == m {
			return true
		}
	}
	return false
}

// universe allocates nodes and performs unification.
type universe struct {
	nextID int
}

func (u *universe) newNode(label string) *Node {
	n := &Node{id: u.nextID, fields: make(map[string]*Node), labels: make(map[string]struct{})}
	u.nextID++
	if label != "" {
		n.labels[label] = struct{}{}
	}
	return n
}

// unify merges the classes of a and b, recursively unifying same-named
// field targets (the classic DSA collapse that folds recursive structures
// into one node).
func (u *universe) unify(a, b *Node) *Node {
	a, b = a.find(), b.find()
	if a == b {
		return a
	}
	// Keep the smaller id as representative for determinism.
	if b.id < a.id {
		a, b = b, a
	}
	b.parent = a
	for l := range b.labels {
		a.labels[l] = struct{}{}
	}
	// Merge field maps; colliding fields unify recursively. Collect the
	// collisions first: unify may re-enter and rewrite the maps. Field
	// names are sorted so the recursive unification order — and with it
	// the id every merged class ends up with — is reproducible.
	type pair struct{ x, y *Node }
	var todo []pair
	for _, f := range sortedFields(b.fields) {
		t := b.fields[f]
		if cur, ok := a.fields[f]; ok {
			todo = append(todo, pair{cur, t})
		} else {
			a.fields[f] = t
		}
	}
	b.fields = nil
	for _, p := range todo {
		u.unify(p.x, p.y)
	}
	return a.find()
}

// sortedFields returns a field map's keys in sorted order, so callers
// can visit entries deterministically.
func sortedFields(m map[string]*Node) []string {
	names := make([]string, 0, len(m))
	for f := range m {
		names = append(names, f)
	}
	sort.Strings(names)
	return names
}

// fieldNode returns (creating if needed) the target node of n.field.
func (u *universe) fieldNode(n *Node, field string) *Node {
	n = n.find()
	t, ok := n.fields[field]
	if !ok {
		t = u.newNode("")
		n.fields[field] = t
		return t
	}
	return t.find()
}
