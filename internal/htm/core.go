package htm

import (
	"math/rand"

	"repro/internal/mem"
)

// Core is one simulated hardware thread. A Core must only be used by the
// thread body it was handed to by Machine.Run; the engine guarantees that
// only one core executes between synchronization points, so no locking is
// needed anywhere in the access paths.
type Core struct {
	m     *Machine
	id    int
	clock uint64
	stats CoreStats
	l1    *l1cache
	// rng backs the randomized backoff policies; it is built lazily on
	// first draw so contention-free runs never pay the seeding cost.
	rng *rand.Rand

	inTx      bool
	inAttempt bool
	inIrrev   bool
	// hasPending gates pendingAbort; the info is stored inline so a remote
	// abort costs no allocation on the requester's critical path.
	hasPending   bool
	pendingAbort AbortInfo
	// abortBox is the reusable panic payload for transaction aborts:
	// panicking with a pre-boxed pointer keeps the abort unwind path
	// allocation-free. Safe to reuse because tryTx copies the info out
	// before the core can abort again.
	abortBox txAbort
	// wbuf is the transactional write buffer; txs is the speculative-set
	// index (first-access PC/site and written flag per line — the per-line
	// tx bits and 12-bit PC tag the paper adds to the L1, Section 4). Both
	// are flat open-addressed tables cleared per transaction.
	wbuf         mem.WordSet
	txs          txTable
	attemptStart uint64
	attemptWait  uint64

	// memo is the line this core's last Load or NTLoad left
	// most-recently-used in its L1, tagged memoValid, and memoRead too
	// when a Load put it there having stripped its foreign writers (and,
	// in a transaction, recorded it); 0 when there is none. It holds only
	// while the token stays on the core: every handoff, TxBegin and every
	// store path drop it. memoHits counts the accesses it served, for
	// EngineStats.Shortcuts.
	memo     mem.Addr
	memoHits uint64

	// abTag is the opaque atomic-block tag the runtime sets around each
	// atomic instance; it is stamped into AbortInfo.KillerAB when this
	// core aborts somebody (pure bookkeeping, no simulated events).
	abTag int

	// traceOn caches "some trace sink is installed" so the per-event
	// record calls cost one boolean test on untraced machines.
	traceOn bool
	// addrScratch is reused by lazyResolve's commit-time address sort.
	addrScratch []mem.Addr

	// Observer state. obsOn is set while a TxObserver is installed and an
	// atomic section is active; obsReads then logs the section's first
	// external read of each word and obsWrites an irrevocable section's
	// plain stores (a transaction's write set is wbuf itself), both reset
	// per section. opTag is the workload's tag for the current section.
	obsOn     bool
	obsReads  mem.WordSet
	obsWrites mem.WordSet
	opTag     any
}

// reset zeroes the core but for what identifies it and the storage it
// has grown: the L1 array (emptied, not cleared) and the capacity of its
// tables. The backoff PRNG goes too, so the next run seeds its own.
func (c *Core) reset() {
	c.l1.reset()
	c.txs.reset()
	*c = Core{
		m: c.m, id: c.id, l1: c.l1, txs: c.txs,
		wbuf:        emptied(c.wbuf),
		obsReads:    emptied(c.obsReads),
		obsWrites:   emptied(c.obsWrites),
		addrScratch: c.addrScratch[:0],
	}
}

// emptied returns s holding no words, on the storage it has. A set that
// has none yet stays without: WordSet.Reset would allocate its minimum
// table, and a new machine's idle cores hold none.
func emptied(s mem.WordSet) mem.WordSet {
	if len(s.Words()) != 0 {
		s.Reset()
	}
	return s
}

// rand returns the core's backoff PRNG, seeding it deterministically from
// the machine seed and core ID on first use. Lazy construction draws the
// same sequence as the former eager one, so schedules are unchanged.
func (c *Core) rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.m.cfg.Seed*2654435761 + int64(c.id)*40503 + 7))
	}
	return c.rng
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// SetABTag tags this core with the atomic block it is executing (0 =
// none). The tag is ground-truth bookkeeping only: it is copied into
// AbortInfo.KillerAB when this core's accesses abort another core, and
// touches no simulated state, so setting it never perturbs the run.
func (c *Core) SetABTag(tag int) { c.abTag = tag }

// Now returns the core's virtual clock in cycles.
func (c *Core) Now() uint64 { return c.clock }

// Machine returns the owning machine.
func (c *Core) Machine() *Machine { return c.m }

// InTx reports whether a hardware transaction is active.
func (c *Core) InTx() bool { return c.inTx }

// Stats exposes the core's counters (read-only use expected).
func (c *Core) Stats() *CoreStats { return &c.stats }

// event serializes a globally visible action at the core's current clock
// and delivers any pending remote abort before the action executes. On a
// fault-free machine that is the engine's keep test, inlined here, a
// pending check and the watchdog check; a machine with a fault injector
// takes chaosEvent instead.
func (c *Core) event() {
	if c.m.chaos != nil {
		c.chaosEvent()
		return
	}
	if e := c.m.eng; !e.keep(c.id, c.clock) {
		e.handoff(c.id)
		c.memo = 0
	}
	if c.hasPending {
		c.deliverPending()
	}
	c.checkWatchdog()
}

// deliverPending consumes a remote abort recorded by abortRemote; it
// unwinds the transaction if the core is still in it.
func (c *Core) deliverPending() {
	c.hasPending = false
	if c.inTx {
		c.abortSelf(c.pendingAbort)
	}
}

// chaosEvent is event on a machine with a fault injector: injected stall
// jitter lands before the sync and spurious aborts after the pending
// abort, so every fault occupies a definite slot in the global
// virtual-time order and the schedule replays exactly.
func (c *Core) chaosEvent() {
	if j := c.m.chaos.StallJitter(c.id); j != 0 {
		c.stats.WaitCycles[WaitFault] += j
		if c.inAttempt {
			c.attemptWait += j
		}
		c.clock += j
	}
	if e := c.m.eng; !e.keep(c.id, c.clock) {
		e.handoff(c.id)
		c.memo = 0
	}
	if c.hasPending {
		c.deliverPending()
	}
	if c.inTx {
		if reason, ok := c.m.chaos.SpuriousAbort(c.id); ok {
			c.abortSelf(AbortInfo{Reason: reason, ByCore: -1})
		}
	}
	c.checkWatchdog()
}

func (c *Core) countUop() {
	c.stats.Uops++
	if c.inTx {
		c.stats.TxUops++
	}
}

// Compute models n µ-ops of non-memory work, IssueWidth per cycle. It
// advances the local clock only; it never synchronizes, so a conflicting
// abort is delivered at the next memory event.
func (c *Core) Compute(uops int) {
	if uops <= 0 {
		return
	}
	c.stats.Uops += uint64(uops)
	if c.inTx {
		c.stats.TxUops += uint64(uops)
	}
	c.clock += (uint64(uops) + IssueWidth - 1) / IssueWidth
	// A compute-only loop never reaches event(); check the watchdog here
	// too so such a livelock still fails loudly.
	c.checkWatchdog()
}

// SpinWait models stalled cycles of the given kind, then yields to the
// engine so lower-timestamp cores can make progress.
func (c *Core) SpinWait(cycles uint64, kind WaitKind) {
	c.stats.WaitCycles[kind] += cycles
	if c.inAttempt {
		c.attemptWait += cycles
	}
	c.clock += cycles
	c.event()
}

// TxBegin starts a hardware transaction (speculate). Transactions do not
// nest.
func (c *Core) TxBegin() {
	if c.inTx {
		panic("htm: nested TxBegin")
	}
	c.hasPending = false
	// A line loaded before the transaction is in no read set yet.
	c.memo = 0
	c.inTx = true
	c.inAttempt = true
	c.attemptStart = c.clock
	c.attemptWait = 0
	c.obsBeginSection()
	c.recordBegin()
	c.clock += c.m.cfg.TxBeginCost
}

// TxCommit commits the active transaction, making its speculative writes
// visible atomically. The caller (runtime) is responsible for subscribing
// to the global lock beforehand if it uses a lock-based fallback.
func (c *Core) TxCommit() {
	if !c.inTx {
		panic("htm: TxCommit outside transaction")
	}
	c.event()
	if c.m.cfg.Lazy {
		c.lazyResolve()
	}
	// Publish in insertion order; the buffered words are distinct, so the
	// resulting memory state is order-independent.
	for _, w := range c.wbuf.Words() {
		c.m.Mem.Store(w.Addr, w.Val)
	}
	c.clock += c.m.cfg.TxCommitCost
	c.stats.Commits++
	c.stats.UsefulTxCycles += c.clock - c.attemptStart - c.attemptWait
	c.recordCommit()
	c.obsEndSection(false, c.wbuf.Words())
	c.clearTx()
}

// TxAbortExplicit aborts the active transaction from software (xabort).
func (c *Core) TxAbortExplicit() {
	if !c.inTx {
		panic("htm: TxAbortExplicit outside transaction")
	}
	c.abortSelf(AbortInfo{Reason: AbortExplicit, ByCore: c.id})
}

// abortSelf finalizes an abort initiated by this core's own execution
// (overflow, explicit, lock-held) and unwinds to the retry loop.
func (c *Core) abortSelf(info AbortInfo) {
	c.finishAbort(info)
	c.abortBox.info = info
	panic(&c.abortBox)
}

// finishAbort accounts an aborted attempt and discards speculative state.
func (c *Core) finishAbort(info AbortInfo) {
	c.stats.Aborts[info.Reason]++
	c.stats.WastedTxCycles += c.clock - c.attemptStart - c.attemptWait
	c.recordAbort(info)
	c.obsOn = false // the op tag survives: the retry re-declares it
	c.clearTx()
}

// clearTx discards speculative state and releases directory presence.
func (c *Core) clearTx() {
	mask := ^(uint32(1) << uint(c.id))
	for i := range c.txs.ents {
		if e := c.m.lines.lookup(c.txs.ents[i].line); e != nil {
			e.readers &= mask
			e.writers &= mask
		}
	}
	c.txs.clear()
	c.wbuf.Reset()
	c.inTx = false
	c.inAttempt = false
}

// abortRemote kills the transaction of core v because of a conflicting
// access to line by core c (site is the killing access's static site, 0
// when unattributed). Requester wins: v's directory presence is removed
// immediately; v observes the abort at its next event.
func (c *Core) abortRemote(v *Core, line mem.Addr, site uint32) {
	if !v.inTx || v.hasPending {
		// Already doomed; just make sure its presence is gone.
		c.stripDir(v)
		return
	}
	info := AbortInfo{
		Reason:     AbortConflict,
		ConfAddr:   line,
		ByCore:     c.id,
		KillerSite: site,
		KillerAB:   c.abTag,
	}
	if tl := v.txs.lookup(line); tl != nil {
		info.TrueSite = tl.site
		if c.m.cfg.HardwareCPC {
			info.ConfPC = tl.pc & c.m.cfg.pcMask()
			info.HasPC = true
		}
	}
	v.pendingAbort = info
	v.hasPending = true
	c.stripDir(v)
}

// stripDir removes core v's speculative presence from the directory.
func (c *Core) stripDir(v *Core) {
	mask := ^(uint32(1) << uint(v.id))
	for i := range v.txs.ents {
		if e := c.m.lines.lookup(v.txs.ents[i].line); e != nil {
			e.readers &= mask
			e.writers &= mask
		}
	}
}

// abortMask aborts every core named in mask other than c itself; site
// is the killing access's static site (0 when unattributed). It is
// inlinable: the empty-mask case (no foreign speculative presence — the
// overwhelmingly common one) costs a masked compare, and the slow loop
// lives in abortMaskSlow.
func (c *Core) abortMask(mask uint32, line mem.Addr, site uint32) {
	if mask &^= 1 << uint(c.id); mask != 0 {
		c.abortMaskSlow(mask, line, site)
	}
}

func (c *Core) abortMaskSlow(mask uint32, line mem.Addr, site uint32) {
	for id := 0; mask != 0; id++ {
		if mask&(1<<uint(id)) != 0 {
			mask &^= 1 << uint(id)
			c.abortRemote(c.m.cores[id], line, site)
		}
	}
}

// record notes the first transactional access to a line. Entries are
// stored by value in the flat table: the common first-access path is one
// probe and one append, with no per-line heap allocation.
func (c *Core) record(line mem.Addr, pc uint64, site uint32, wrote bool) {
	tl := c.txs.lookup(line)
	if tl == nil {
		c.txs.add(line, pc, site, wrote)
		if max := c.m.cfg.MaxSpecLines; max > 0 && len(c.txs.ents) > max {
			// Speculative-set capacity exhausted (the limited-HTM
			// variant's dedicated transactional buffer is full). The
			// line joins the set first so clearTx strips its directory
			// presence, then the attempt aborts as an overflow.
			c.abortSelf(AbortInfo{Reason: AbortOverflow, ByCore: c.id})
		}
		return
	}
	if wrote && !tl.wrote {
		tl.wrote = true
	}
}

// Tags of Core.memo, in the low bits a line address leaves zero.
const (
	memoValid mem.Addr = 1 // the line is MRU in the core's L1
	memoRead  mem.Addr = 2 // a Load stripped its writers and recorded it
)

// memoHit charges an access the memo serves: an L1 hit on a line that
// is already MRU, so the L1 has nothing to reorder.
func (c *Core) memoHit() uint64 {
	c.memoHits++
	c.stats.L1Hits++
	return c.m.cfg.L1Lat
}

// Load performs a load at program counter pc from static site, reading
// the word at address a. Inside a transaction the access is speculative;
// outside it is an ordinary coherent load.
func (c *Core) Load(pc uint64, site uint32, a mem.Addr) uint64 {
	c.countUop()
	c.stats.Loads++
	line := mem.LineOf(a)
	c.event()
	if c.memo == line|memoValid|memoRead {
		// A Load of this line set the memo and no other core has run
		// since: the writer strip, the read-set record and the L1 touch
		// below would change nothing.
		c.clock += c.memoHit()
	} else {
		e := c.m.entry(line)
		memo := line | memoValid
		if !c.m.cfg.Lazy || !c.inTx {
			// Eager requester-wins (and any non-speculative read):
			// reading a line another core has speculatively written
			// aborts the writer.
			c.abortMask(e.writers, line, site)
			memo |= memoRead
		}
		if c.inTx {
			e.readers |= 1 << uint(c.id)
			c.record(line, pc, site, false)
		}
		c.clock += c.m.lookupLatency(c, line, e)
		c.memo = memo
	}
	word := mem.WordOf(a)
	if c.inTx {
		if v, ok := c.wbuf.Get(word); ok {
			return v
		}
	}
	v := c.m.Mem.Load(a)
	if c.obsOn {
		c.obsRead(word, v)
	}
	return v
}

// Store performs a store at program counter pc from static site, writing
// v to the word at address a. Inside a transaction the write is buffered
// until commit; outside it updates memory immediately.
func (c *Core) Store(pc uint64, site uint32, a mem.Addr, v uint64) {
	c.countUop()
	c.stats.Stores++
	c.memo = 0
	line := mem.LineOf(a)
	c.event()
	e := c.m.entry(line)
	if !c.m.cfg.Lazy || !c.inTx {
		// Eager mode (and any non-speculative store): a store conflicts
		// with every other speculative reader or writer, requester wins.
		c.abortMask(e.writers|e.readers, line, site)
	}
	if !c.inTx || !c.m.cfg.Lazy {
		// Lazy speculative stores stay private until commit: no RFO yet.
		c.m.invalidateOthers(e, line, c.id)
	}
	c.clock += c.m.lookupLatency(c, line, e)
	if c.inTx {
		e.readers |= 1 << uint(c.id)
		e.writers |= 1 << uint(c.id)
		c.record(line, pc, site, true)
		c.wbuf.Put(mem.WordOf(a), v)
		return
	}
	c.m.Mem.Store(a, v)
	c.obsStore(mem.WordOf(a), v)
}

// obsStore routes a committed (non-speculative) store to the observer:
// inside an irrevocable section the write joins the section's deferred
// write set; otherwise it is reported immediately.
func (c *Core) obsStore(word mem.Addr, v uint64) {
	if c.m.observer == nil {
		return
	}
	if c.inIrrev {
		c.obsWrites.Put(word, v)
		return
	}
	c.m.observer.OnStore(c.id, word, v)
}

// NTLoad performs a nontransactional load: it reads committed memory and
// joins no speculative set, so remote stores to the location cannot abort
// this core. Speculative writes by other cores are buffered until their
// commit and thus invisible; the load is serviced from the committed copy
// without disturbing the writer (lazy versioning, eager conflict
// detection — the combination our ASF variant models).
func (c *Core) NTLoad(a mem.Addr) uint64 {
	c.countUop()
	c.stats.NTLoads++
	line := mem.LineOf(a)
	c.event()
	if c.memo|memoRead == line|memoValid|memoRead {
		// Whichever load left the line MRU, an NT load of it only hits.
		c.ntCharge(c.memoHit())
	} else {
		c.ntCharge(c.m.lookupLatency(c, line, c.m.entry(line)))
		c.memo = line | memoValid
	}
	return c.m.Mem.Load(a)
}

// ntCharge advances the clock by an NT access latency, attributing it to
// the NT-overhead counter when issued inside an atomic attempt (the cost
// of advisory-lock traffic from transactional code).
func (c *Core) ntCharge(lat uint64) {
	if c.inAttempt {
		c.stats.NTTxCycles += lat
	}
	c.clock += lat
}

// NTStore performs an immediate nontransactional store (ASF-style): the
// write is globally visible at once, survives an abort of the enclosing
// transaction, and joins no speculative set. If other cores hold the line
// transactionally, they abort (their speculation has read or written data
// this store invalidates).
func (c *Core) NTStore(a mem.Addr, v uint64) {
	c.countUop()
	c.stats.NTStores++
	line := mem.LineOf(a)
	e := c.ntStoreConflicts(line)
	c.ntFaultDelay()
	c.m.invalidateOthers(e, line, c.id)
	c.ntCharge(c.m.lookupLatency(c, line, e))
	c.m.Mem.Store(a, v)
	c.obsStore(mem.WordOf(a), v)
}

// NTCas performs a nontransactional compare-and-swap as a single memory
// event, returning whether the swap happened. It is the primitive used to
// build advisory locks and the irrevocable global lock.
func (c *Core) NTCas(a mem.Addr, old, new uint64) bool {
	c.countUop()
	c.stats.NTLoads++
	c.stats.NTStores++
	line := mem.LineOf(a)
	e := c.ntStoreConflicts(line)
	c.ntFaultDelay()
	c.m.invalidateOthers(e, line, c.id)
	c.ntCharge(c.m.lookupLatency(c, line, e))
	if c.m.Mem.Load(a) != old {
		return false
	}
	c.m.Mem.Store(a, new)
	c.obsStore(mem.WordOf(a), new)
	return true
}

// ntFaultDelay charges an injected transient delay against this
// nontransactional store, if a fault injector is installed.
func (c *Core) ntFaultDelay() {
	if c.m.chaos == nil {
		return
	}
	if d := c.m.chaos.NTDelay(c.id); d != 0 {
		c.stats.WaitCycles[WaitFault] += d
		if c.inAttempt {
			c.attemptWait += d
		}
		c.clock += d
	}
}

// ntStoreConflicts drops the memo, synchronizes, aborts every remote
// transaction that holds the target line speculatively, and returns the
// line's coherence entry for the caller's invalidation and latency steps.
func (c *Core) ntStoreConflicts(line mem.Addr) *lineEntry {
	c.memo = 0
	c.event()
	e := c.m.entry(line)
	// NT stores carry no static site: the advisory-lock words they hit
	// live outside the IR, so the conflict pair stays unattributed.
	c.abortMask(e.writers|e.readers, line, 0)
	return e
}

// lazyResolve implements commit-time committer-wins conflict resolution:
// the committing transaction aborts every other transaction whose
// speculative sets intersect its write set, then publishes. Lines are
// visited in address order so victim selection — and therefore the whole
// simulation — stays deterministic.
func (c *Core) lazyResolve() {
	written := c.addrScratch[:0]
	for i := range c.txs.ents {
		if c.txs.ents[i].wrote {
			written = append(written, c.txs.ents[i].line)
		}
	}
	c.addrScratch = written // keep the grown buffer for the next commit
	sortAddrs(written)
	for _, line := range written {
		// Every recorded line has a coherence entry (Load/Store created it).
		e := c.m.lines.lookup(line)
		// The committer's first access to the line stands in for the
		// killing site (the publish is line-, not site-granular).
		c.abortMask(e.writers|e.readers, line, c.txs.lookup(line).site)
		// Publishing takes ownership: remote caches lose the line.
		c.m.invalidateOthers(e, line, c.id)
	}
}

func sortAddrs(a []mem.Addr) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
