// Package staticcheck is the IR verification layer in front of the
// dynamic machinery: it re-checks, on the compiler pass's own output,
// the invariants the staggered-transactions runtime silently relies on
// but never validates at run time.
//
// Two checks run per module over the compiled anchor tables:
//
//	(a) anchor-scope   — every non-anchor's pioneer exists, is an anchor
//	                     on the same DSNode, and dominates the site on
//	                     all CFG paths; parents are well-formed; every
//	                     ALP site lies inside at least one atomic block,
//	                     so its advisory lock has a release scope (the
//	                     runtime releases unconditionally at the
//	                     commit/abort hooks of the enclosing block).
//	(b) coverage       — no load/store site reachable from an atomic
//	                     block maps to a DSNode with zero anchors, and
//	                     every such site has a row in the block's unified
//	                     table.
//
// Violations carry block/site IDs and, where a path property failed, a
// minimal counterexample path through the CFG.
package staticcheck

import (
	"fmt"
	"strings"

	"repro/internal/anchor"
)

// Check names, used in Violation.Check.
const (
	CheckScope    = "anchor-scope"
	CheckCoverage = "coverage"
)

// Violation is one verification failure, locatable by atomic block and
// site ID, with an optional minimal counterexample path.
type Violation struct {
	// Check is the failed check (CheckScope or CheckCoverage).
	Check string
	// AB is the atomic block ID (1-based; 0 = module-level).
	AB int
	// Site is the offending static site ID (0 = none in particular).
	Site uint32
	// Msg states the broken invariant.
	Msg string
	// Path is the minimal counterexample: the CFG path (after any call
	// chain) that reaches the site without passing its covering anchor.
	Path []string
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]", v.Check)
	if v.AB != 0 {
		fmt.Fprintf(&b, " ab=%d", v.AB)
	}
	if v.Site != 0 {
		fmt.Fprintf(&b, " site=%d", v.Site)
	}
	b.WriteString(": ")
	b.WriteString(v.Msg)
	if len(v.Path) > 0 {
		fmt.Fprintf(&b, " [counterexample: %s]", strings.Join(v.Path, " -> "))
	}
	return b.String()
}

// Verify runs checks (a) and (b) over one compiled module and returns
// every violation found, in deterministic order. An empty result means
// the anchor tables uphold both invariants.
func Verify(c *anchor.Compiled) []Violation {
	return append(checkScope(c), checkCoverage(c)...)
}
