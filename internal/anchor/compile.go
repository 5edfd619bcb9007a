package anchor

import (
	"fmt"
	"strings"

	"repro/internal/dsa"
	"repro/internal/prog"
)

// Compiled is the full output of the staggered-transactions compiler pass
// for one module: local tables, per-atomic-block unified tables, and the
// instrumentation set (which sites carry an ALPoint call).
type Compiled struct {
	Mod     *prog.Module
	Locals  map[*prog.Func]*LocalTable
	Unified map[*prog.AtomicBlock]*Unified

	// IsALP is indexed by site ID: true when the compiler inserted an
	// advisory locking point before the site.
	IsALP []bool

	// StaticAccesses and StaticAnchors are the "Static Stats" of Table 3:
	// loads/stores analyzed in transactional functions, and how many were
	// instrumented as anchors.
	StaticAccesses int
	StaticAnchors  int
}

// Options tunes the compiler pass.
type Options struct {
	// PCBits is the width of the machine's conflicting-PC tag, used to
	// build the PC-indexed unified tables (paper: 12).
	PCBits int
	// Naive instruments every load and store instead of only anchors —
	// the baseline the paper compares against in Section 6.1.
	Naive bool
}

// DefaultOptions matches the paper's configuration.
func DefaultOptions() Options { return Options{PCBits: 12} }

// Compile runs the whole pass: bottom-up DSA and Algorithm 1 per function
// reachable from any atomic block, then one unified table per atomic
// block, then ALP insertion.
func Compile(m *prog.Module, opts Options) *Compiled {
	if !m.Finalized() {
		panic("anchor: module not finalized")
	}
	if opts.PCBits <= 0 {
		opts.PCBits = 12
	}
	c := &Compiled{
		Mod:     m,
		Locals:  make(map[*prog.Func]*LocalTable),
		Unified: make(map[*prog.AtomicBlock]*Unified),
		IsALP:   make([]bool, m.NumSites()+1),
	}
	// Local stage over every function reachable from some atomic block.
	for _, ab := range m.Atomics {
		for _, f := range prog.ReachableFuncs(ab.Root) {
			if _, done := c.Locals[f]; done {
				continue
			}
			g := dsa.AnalyzeFunc(f)
			c.Locals[f] = BuildLocal(f, g)
		}
	}
	// Unified stage per atomic block.
	for _, ab := range m.Atomics {
		gAB := dsa.AnalyzeAtomic(ab)
		c.Unified[ab] = BuildUnified(ab, gAB, c.Locals, opts.PCBits)
	}
	// Instrumentation: an ALPoint before each anchor (or before every
	// access in naive mode).
	for _, lt := range c.Locals {
		for _, e := range lt.Entries {
			c.StaticAccesses++
			if e.IsAnchor {
				c.StaticAnchors++
			}
			if e.IsAnchor || opts.Naive {
				c.IsALP[e.Site.ID] = true
			}
		}
	}
	return c
}

// InstrumentedFraction returns the fraction of analyzed loads/stores that
// carry an ALP (the "13% on average" statistic of Section 6.1).
func (c *Compiled) InstrumentedFraction() float64 {
	if c.StaticAccesses == 0 {
		return 0
	}
	n := 0
	for _, v := range c.IsALP {
		if v {
			n++
		}
	}
	return float64(n) / float64(c.StaticAccesses)
}

// Dump renders the unified table of one atomic block in the style of
// Figure 3 of the paper, for debugging and the anchordump tool.
func (c *Compiled) Dump(ab *prog.AtomicBlock) string {
	u := c.Unified[ab]
	var b strings.Builder
	fmt.Fprintf(&b, "atomic block %d %q (root %s)\n", ab.ID, ab.Name, ab.Root.Name)
	for _, e := range u.Entries {
		mark := " "
		if e.IsAnchor {
			mark = "A"
		}
		fmt.Fprintf(&b, "  %s %3d pc=%#06x %-40s node=%-18s", mark, e.Site.ID, e.Site.PC, e.Site, e.Node.Label())
		switch {
		case e.IsAnchor:
			fmt.Fprintf(&b, " parent=%d", e.ParentID)
		default:
			fmt.Fprintf(&b, " pioneer=%d", e.PioneerID)
		}
		if c.IsALP[e.Site.ID] {
			b.WriteString("  [ALP]")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
