package stagger

import (
	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// TxCtx is the access context handed to the body of an atomic block. All
// transactional data accesses go through it so that ALPoint
// instrumentation fires at the compiler-selected anchors. One TxCtx
// serves all retry attempts of one atomic-block instance.
type TxCtx struct {
	th  *Thread
	c   *htm.Core
	abc *ABContext

	// isALP is the compiler's ALP table indexed by site ID, nil when the
	// mode is not instrumented; recorder is the runtime's site recorder.
	// Load and Store test each with one field read.
	isALP    []bool
	recorder backend.SiteRecorder

	// armedAnchor is this instance's pending ALP (site ID); cleared once
	// the transaction holds its advisory lock.
	armedAnchor uint32
	// lock is the advisory lock word currently held (0 = none: the paper
	// acquires at most one per transaction) and lockAt its acquisition's
	// virtual time, for the hold-time metrics.
	lock   mem.Addr
	lockAt uint64
}

// Core returns the simulated core, for nontransactional side channels
// (e.g. labyrinth's privatizing grid snapshot).
func (t *TxCtx) Core() *htm.Core { return t.c }

// Op attaches an opaque operation descriptor to the current atomic-block
// instance for the serializability oracle (see htm.Core.SetOpTag). A
// cheap no-op when no oracle is installed.
func (t *TxCtx) Op(tag any) { t.c.SetOpTag(tag) }

// Compute models n µ-ops of non-memory work inside the atomic block.
func (t *TxCtx) Compute(uops int) { t.c.Compute(uops) }

// Load performs the transactional load of site s at address a, running
// the site's ALPoint first when the compiler instrumented it.
func (t *TxCtx) Load(s *prog.Site, a mem.Addr) uint64 {
	if t.recorder != nil {
		t.recorder.RecordAccess(t.abc.ab, s, false)
	}
	if t.isALP != nil && t.isALP[s.ID] {
		t.alpoint(s, a)
	}
	return t.c.Load(s.PC, s.ID, a)
}

// Store performs the transactional store of site s.
func (t *TxCtx) Store(s *prog.Site, a mem.Addr, v uint64) {
	if t.recorder != nil {
		t.recorder.RecordAccess(t.abc.ab, s, true)
	}
	if t.isALP != nil && t.isALP[s.ID] {
		t.alpoint(s, a)
	}
	t.c.Store(s.PC, s.ID, a, v)
}

// alpoint is the runtime's ALPoint function (Figure 5): when the site is
// the armed anchor and the address matches (or the ALP is coarse-grain),
// acquire the advisory lock chosen by the data address.
func (t *TxCtx) alpoint(s *prog.Site, a mem.Addr) {
	rt := t.th.rt
	rt.Metrics.ALPVisits++
	// An inactive ALP costs one test and a non-taken branch.
	t.c.Compute(1)

	if rt.cfg.Mode == ModeStaggeredSW {
		t.swRecord(s, a)
	}

	if t.armedAnchor != s.ID {
		return
	}
	if t.abc.blockAddr != 0 && mem.LineOf(a) != t.abc.blockAddr {
		return // precise mode: address mismatch
	}
	t.acquireLockFor(a)
	if t.lock != 0 {
		t.armedAnchor = 0 // one advisory lock per transaction (Section 2)
	}
}

// swRecord maintains the per-thread software line→anchor map of
// Section 4 ("Software Alternatives to Conflicting PC"): at every ALP the
// runtime sets M(line(a)) to the anchor ID using nontransactional
// accesses, if the slot does not already carry it.
func (t *TxCtx) swRecord(s *prog.Site, a mem.Addr) {
	slot := t.th.swSlot(a)
	if t.c.NTLoad(slot) != uint64(s.ID) {
		t.c.NTStore(slot, uint64(s.ID))
	}
}

// swSlot returns the software-map slot for a line address.
func (th *Thread) swSlot(a mem.Addr) mem.Addr {
	line := uint64(mem.LineOf(a)) / mem.LineSize
	idx := hash64(line) & uint64(th.rt.cfg.SWMapWords-1)
	return th.rt.swBase[th.tid] + mem.Addr(idx*mem.WordSize)
}

// swLookup resolves a conflicting line through the software map,
// nontransactionally (used by the abort handler in SW mode).
func (th *Thread) swLookup(c *htm.Core, a mem.Addr) uint32 {
	return uint32(c.NTLoad(th.swSlot(a)))
}

// hash64 is a 64-bit mix (splitmix64 finalizer) used for lock and map
// slot selection.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
