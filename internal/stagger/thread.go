package stagger

import (
	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// Thread is one core's runtime state, bound to that core when the
// runtime creates it, and the backend.Ctx its atomic-block bodies
// receive: all transactional data accesses go through it so that ALPoint
// instrumentation fires at the compiler-selected anchors. One Thread
// serves every instance and retry attempt its core runs, so an instance
// allocates nothing.
type Thread struct {
	rt *Runtime
	c  *htm.Core

	// isALP is the compiler's ALP table indexed by site ID, nil when the
	// mode is not instrumented. Load and Store test it with one field
	// read.
	isALP []bool

	// ctxs holds this thread's ABContexts indexed by atomic-block ID
	// (IDs are dense from 1), each created when its block first runs.
	ctxs []*ABContext

	// hooks and run are Atomic's arguments to htm.Core.Atomic, built
	// once; they read the running instance from the fields below.
	hooks htm.TxHooks
	run   func(*htm.Core)

	// abc and body are the running instance's block and body, set by
	// Atomic before each instance.
	abc  *ABContext
	body func(backend.Ctx)
	// armedAnchor is the instance's pending ALP (site ID), restored from
	// abc at every attempt's begin and cleared once the transaction
	// holds its advisory lock.
	armedAnchor uint32
	// lock is the advisory lock word currently held (0 = none: the paper
	// acquires at most one per transaction) and lockAt its acquisition's
	// virtual time, for the hold-time metrics. Every commit and abort
	// releases it, so it is 0 between instances.
	lock   mem.Addr
	lockAt uint64
}

// Core returns the simulated core, for nontransactional side channels
// (e.g. labyrinth's privatizing grid snapshot).
func (th *Thread) Core() *htm.Core { return th.c }

// Op attaches an opaque operation descriptor to the current atomic-block
// instance for the serializability oracle (see htm.Core.SetOpTag).
// Without an oracle the call does nothing, but a tag that is not
// pointer-shaped is boxed into the interface before the call, so each
// tagged op still heap-allocates its tag.
func (th *Thread) Op(tag any) { th.c.SetOpTag(tag) }

// Compute models n µ-ops of non-memory work inside the atomic block.
func (th *Thread) Compute(uops int) { th.c.Compute(uops) }

// Load performs the transactional load of site s at address a, running
// the site's ALPoint first when the compiler instrumented it.
func (th *Thread) Load(s *prog.Site, a mem.Addr) uint64 {
	if th.isALP != nil && th.isALP[s.ID] {
		th.alpoint(s, a)
	}
	return th.c.Load(s.PC, s.ID, a)
}

// Store performs the transactional store of site s.
func (th *Thread) Store(s *prog.Site, a mem.Addr, v uint64) {
	if th.isALP != nil && th.isALP[s.ID] {
		th.alpoint(s, a)
	}
	th.c.Store(s.PC, s.ID, a, v)
}

// alpoint is the runtime's ALPoint function (Figure 5): when the site is
// the armed anchor and the address matches (or the ALP is coarse-grain),
// acquire the advisory lock chosen by the data address.
func (th *Thread) alpoint(s *prog.Site, a mem.Addr) {
	rt := th.rt
	rt.Metrics.ALPVisits++
	// An inactive ALP costs one test and a non-taken branch.
	th.c.Compute(1)

	if rt.cfg.Mode == ModeStaggeredSW {
		th.swRecord(s, a)
	}

	if th.armedAnchor != s.ID {
		return
	}
	if th.abc.blockAddr != 0 && mem.LineOf(a) != th.abc.blockAddr {
		return // precise mode: address mismatch
	}
	th.acquireLockFor(a)
	if th.lock != 0 {
		th.armedAnchor = 0 // one advisory lock per transaction (Section 2)
	}
}

// swRecord maintains the per-thread software line→anchor map of
// Section 4 ("Software Alternatives to Conflicting PC"): at every ALP the
// runtime sets M(line(a)) to the anchor ID using nontransactional
// accesses, if the slot does not already carry it.
func (th *Thread) swRecord(s *prog.Site, a mem.Addr) {
	slot := th.swSlot(a)
	if th.c.NTLoad(slot) != uint64(s.ID) {
		th.c.NTStore(slot, uint64(s.ID))
	}
}

// swSlot returns the software-map slot for a line address.
func (th *Thread) swSlot(a mem.Addr) mem.Addr {
	line := uint64(mem.LineOf(a)) / mem.LineSize
	idx := hash64(line) & uint64(th.rt.cfg.SWMapWords-1)
	return th.rt.swBase[th.c.ID()] + mem.Addr(idx*mem.WordSize)
}

// swLookup resolves a conflicting line through the software map,
// nontransactionally (used by the abort handler in SW mode).
func (th *Thread) swLookup(a mem.Addr) uint32 {
	return uint32(th.c.NTLoad(th.swSlot(a)))
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
