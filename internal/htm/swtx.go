package htm

import "repro/internal/mem"

// This file is the accounting and publication surface for SOFTWARE
// transaction runtimes (e.g. the OCC backend): concurrency-control
// schemes that never enter a hardware transaction but still want their
// attempts, commits, aborts, and cycle attribution to land in the same
// CoreStats schema — and their serialization points in the same
// observer stream — as hardware transactions, so reports and oracles
// read every backend uniformly.
//
// A software attempt brackets its execution with SWTxBegin and exactly
// one of SWTxCommit or SWTxAbort. Inside the bracket the runtime issues
// ordinary nontransactional accesses (NTLoad/NTStore/NTCas); the
// bracket only attributes the elapsed cycles, it creates no speculative
// state and cannot be aborted remotely.

// SWTxBegin opens a software-transaction attempt: subsequent cycles are
// attributed to the attempt (useful on commit, wasted on abort, stall
// categories excluded) exactly as for a hardware attempt.
func (c *Core) SWTxBegin() {
	if c.inTx || c.inAttempt {
		panic("htm: SWTxBegin inside an active attempt")
	}
	c.inAttempt = true
	c.attemptStart = c.clock
	c.attemptWait = 0
	c.recordBegin()
}

// SWTxCommit closes a committed software attempt, accounting its
// in-attempt time as useful. irrevocable marks attempts that ran under
// a fallback lock without optimistic validation (counted like the HTM
// runtime's irrevocable fallbacks). Reporting the serialization point
// to an installed observer is the caller's job (ReportAtomic), because
// only the runtime knows its read and write sets.
func (c *Core) SWTxCommit(irrevocable bool) {
	if !c.inAttempt || c.inTx {
		panic("htm: SWTxCommit outside a software attempt")
	}
	c.stats.Commits++
	if irrevocable {
		c.stats.IrrevocableCommits++
	}
	c.stats.UsefulTxCycles += c.clock - c.attemptStart - c.attemptWait
	c.recordCommit()
	c.inAttempt = false
}

// SWTxAbort closes a failed software attempt (e.g. OCC validation
// failure), accounting its in-attempt time as wasted under the given
// reason. Unlike a hardware abort it does not unwind: the caller's
// control flow decides whether to retry.
func (c *Core) SWTxAbort(reason AbortReason) {
	if !c.inAttempt || c.inTx {
		panic("htm: SWTxAbort outside a software attempt")
	}
	c.stats.Aborts[reason]++
	c.stats.WastedTxCycles += c.clock - c.attemptStart - c.attemptWait
	c.recordAbort(AbortInfo{Reason: reason, ByCore: c.id})
	c.inAttempt = false
}

// ReportAtomic reports a software transaction's serialization point to
// the installed observer: reads holds each word first-read by the
// attempt with the value observed, writes each word written with its
// committed value (see TxObserver), and the operation tag is the one
// declared through SetOpTag, consumed here (the hardware commit paths
// report through it too). Call it at the attempt's atomicity point —
// after validation succeeds and before the write set is published — so
// the observer's shadow state matches what validation checked. A cheap
// no-op without an observer.
func (c *Core) ReportAtomic(irrevocable bool, reads, writes []mem.Word) {
	if c.m.observer == nil {
		return
	}
	tag := c.opTag
	c.opTag = nil
	c.m.observer.OnCommit(c.id, irrevocable, tag, reads, writes)
}

// NTStoreBatch publishes a write set as one atomic batch: a single
// synchronization event covers every word, so no other core can observe
// a partially published state — the software analogue of TxCommit's
// atomic publication of the hardware write buffer. Coherence still acts
// per line (remote speculative holders abort, remote copies
// invalidate, each line's lookup latency is charged), and each word
// counts as a nontransactional store. The batch is NOT routed to the
// observer: callers report it atomically via ReportAtomic instead, so
// the commit appears exactly once in the observer stream.
func (c *Core) NTStoreBatch(words []mem.Word) {
	c.memo = 0
	c.event()
	c.ntFaultDelay()
	for _, w := range words {
		c.countUop()
		c.stats.NTStores++
		line := mem.LineOf(w.Addr)
		e := c.m.entry(line)
		c.abortMask(e.writers|e.readers, line, 0)
		c.m.invalidateOthers(e, line, c.id)
		c.ntCharge(c.m.lookupLatency(c, line, e))
		c.m.Mem.Store(w.Addr, w.Val)
	}
}
