package stagger

import (
	"fmt"
	"maps"

	"repro/internal/anchor"
	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// Runtime is the per-machine staggered-transactions runtime: it owns the
// advisory lock table (in simulated memory), the per-thread software
// anchor maps, and all ABContexts. Create one per simulation with New.
type Runtime struct {
	cfg  Config
	m    *htm.Machine
	comp *anchor.Compiled
	// retry is cfg's retry loop, lowered once (Config.RetryLoop).
	retry htm.AtomicOpts
	// lockFaults is the machine's fault injector when it also loses
	// advisory-lock releases (nil = every release lands).
	lockFaults LockFaults

	// locksBase is the advisory lock table: NumLocks lock records, one
	// cache line each (word 0: owner+1 or 0; word 1: contended flag).
	locksBase mem.Addr

	// swBase holds per-thread direct-mapped line→anchor maps (SW mode).
	swBase []mem.Addr

	threads []*Thread

	// Metrics (aggregated across threads; the simulation is serialized by
	// the engine so plain counters are safe).
	Metrics Metrics

	// Conflict locality histograms (Table 1's LA/LP columns): counts per
	// conflicting line address and per resolved anchor.
	confAddrs map[mem.Addr]int
	confPCs   map[uint32]int

	// confPairs histograms fully attributed conflicts: which (block,
	// site) aborted which (block, site). Pairs with an unattributed side
	// (runtime lock words, NT stores) are not recorded; the metrics
	// report's conflicting_pairs section renders this histogram.
	confPairs map[ConflictPair]int

	// perAB aggregates policy behaviour per atomic block (diagnostics).
	perAB map[int]*ABMetrics
}

// ConflictPair identifies one fully attributed conflict abort: the
// victim atomic block with its first access to the conflicting line
// (the machine's TrueSite ground truth), and the killer atomic block
// with the access that performed the kill.
type ConflictPair struct {
	VictimAB   int
	VictimSite uint32
	KillerAB   int
	KillerSite uint32
}

// ABMetrics summarizes one atomic block's behaviour across all threads.
// The cycle fields attribute the core-level breakdown (useful, wasted,
// waiting) to the atomic block — the per-txSite view of the same totals
// htm.CoreStats aggregates per core, computed as stat deltas around each
// block instance so the two views always reconcile.
type ABMetrics struct {
	Name                               string
	Commits, ConfAborts, Deep          uint64
	Precise, Coarse, Promote, Training uint64
	Locks                              uint64

	// Aborts counts aborted attempts of this block by abort reason
	// (indexed by htm.AbortReason).
	Aborts [htm.NumAbortReasons]uint64

	// UsefulCycles and WastedCycles split in-attempt time by outcome;
	// LockWaitCycles, BackoffCycles, and GlobalWaitCycles are this block's
	// share of the corresponding stall categories; NTTxCycles is its
	// advisory-lock (NT access) overhead inside attempts.
	UsefulCycles, WastedCycles                      uint64
	LockWaitCycles, BackoffCycles, GlobalWaitCycles uint64
	NTTxCycles                                      uint64
}

// PerAB returns per-atomic-block aggregates keyed by block ID.
func (rt *Runtime) PerAB() map[int]*ABMetrics { return rt.perAB }

// Metrics counts runtime-level events for the experiment harness.
type Metrics struct {
	// ALPVisits counts dynamic executions of instrumented ALPoints
	// ("anchs per txn" in Table 3 divides this by commits).
	ALPVisits uint64
	// LocksAcquired counts successful advisory lock acquisitions.
	LocksAcquired uint64
	// LockTimeouts counts acquisitions abandoned after LockTimeout.
	LockTimeouts uint64
	// Activations counts policy decisions by Figure 6 case.
	ActPrecise, ActCoarse, ActPromote, ActTraining uint64
	// AccHits/AccTotal measure anchor identification accuracy: how often
	// the runtime-resolved anchor equals the true anchor of the initial
	// access to the conflicting line (Table 3 "Accuracy").
	AccHits, AccTotal uint64
	// LockHoldCycles sums virtual cycles advisory locks were held, from
	// the acquiring CAS to the release; LocksAcquired is the divisor for
	// the mean hold time.
	LockHoldCycles uint64
	// ContendedCommits counts commits whose advisory lock had at least one
	// waiter during the holding period — the serialization the locks
	// actually imposed, as opposed to holds nobody contended.
	ContendedCommits uint64
	// SWMisses counts conflicts whose line had no software map entry
	// (SW mode only).
	SWMisses uint64
}

// Accuracy returns the anchor identification accuracy in [0,1], or 1 if
// no conflict aborts were observed.
func (mt *Metrics) Accuracy() float64 {
	if mt.AccTotal == 0 {
		return 1
	}
	return float64(mt.AccHits) / float64(mt.AccTotal)
}

// New builds a runtime for machine m running module programs compiled to
// comp. comp may be nil only for ModeHTM and ModeAddrOnly.
func New(m *htm.Machine, comp *anchor.Compiled, cfg Config) *Runtime {
	cfg.validate()
	if cfg.Mode.Instrumented() && comp == nil {
		panic("stagger: instrumented mode requires compiled anchor tables")
	}
	rt := &Runtime{
		cfg: cfg, m: m, comp: comp,
		retry:     cfg.RetryLoop(),
		confAddrs: make(map[mem.Addr]int),
		confPCs:   make(map[uint32]int),
		confPairs: make(map[ConflictPair]int),
		perAB:     make(map[int]*ABMetrics),
	}
	rt.lockFaults, _ = m.FaultInjector().(LockFaults)
	rt.locksBase = m.Alloc.AllocLines(cfg.NumLocks)
	cores := m.Config().Cores
	rt.threads = make([]*Thread, cores)
	if cfg.Mode == ModeStaggeredSW {
		rt.swBase = make([]mem.Addr, cores)
		for i := range rt.swBase {
			rt.swBase[i] = m.Alloc.AllocLines(cfg.SWMapWords * mem.WordSize / mem.LineSize)
		}
	}
	return rt
}

// Backend adapts the runtime to the backend.Runtime interface without
// giving up the concrete Thread API internal callers rely on. The
// harness recovers the concrete runtime (for stagger-specific metrics)
// through the adapter's Unwrap.
func (rt *Runtime) Backend() backend.Runtime { return backendRuntime{rt} }

type backendRuntime struct{ rt *Runtime }

func (b backendRuntime) Thread(tid int) backend.Thread { return b.rt.Thread(tid) }

// Unwrap exposes the concrete runtime behind the adapter.
func (b backendRuntime) Unwrap() *Runtime { return b.rt }

// Thread returns the runtime context bound to core tid, creating it on
// first use. Each thread body must use only its own Thread.
func (rt *Runtime) Thread(tid int) *Thread {
	if rt.threads[tid] == nil {
		th := &Thread{rt: rt, c: rt.m.Core(tid)}
		if rt.cfg.Mode.Instrumented() {
			th.isALP = rt.comp.IsALP
		}
		th.hooks = htm.TxHooks{
			OnBegin:       th.onBegin,
			OnAbort:       th.onAbort,
			OnCommit:      th.onCommit,
			OnIrrevocable: th.onIrrevocable,
		}
		th.run = func(*htm.Core) { th.body(th) }
		rt.threads[tid] = th
	}
	return rt.threads[tid]
}

// ConflictAddrs returns a copy of the conflicting-line-address histogram
// (conflict aborts per line), the data behind Table 1's LA column and the
// per-line abort attribution in the observability report.
func (rt *Runtime) ConflictAddrs() map[mem.Addr]int { return maps.Clone(rt.confAddrs) }

// ConflictPCs returns a copy of the conflicting-anchor histogram (conflict
// aborts per true initial-access anchor site), the data behind Table 1's
// LP column and the per-PC abort attribution in the observability report.
func (rt *Runtime) ConflictPCs() map[uint32]int { return maps.Clone(rt.confPCs) }

// ConflictPairs returns a copy of the conflicting-pair histogram: fully
// attributed (victim block/site, killer block/site) conflict aborts.
func (rt *Runtime) ConflictPairs() map[ConflictPair]int { return maps.Clone(rt.confPairs) }

// Locality summarizes conflict-pattern locality over the whole run: la
// (lp) is true when the most frequent conflicting address (anchor)
// accounts for a majority of conflict aborts — the LA/LP columns of the
// paper's Table 1.
func (rt *Runtime) Locality() (la, lp bool) {
	return majority(rt.confAddrs), majority(rt.confPCs)
}

func majority[K comparable](hist map[K]int) bool {
	total, max := 0, 0
	for _, n := range hist {
		total += n
		if n > max {
			max = n
		}
	}
	return total > 0 && max*2 > total
}

// ABContext is the per-thread, per-atomic-block structure of Figure 4:
// the currently active anchor, the probable conflicting address, the
// abort history, and the anchor table.
type ABContext struct {
	ab *prog.AtomicBlock
	u  *anchor.Unified
	// m is the block's runtime-wide aggregate (Runtime.PerAB).
	m *ABMetrics

	// activeAnchor is the site ID of the armed ALP (0 = none).
	activeAnchor uint32
	// blockAddr is the expected conflicting line (0 = wild card /
	// coarse-grain).
	blockAddr mem.Addr

	history []abortRecord // ring, newest last

	// deepW counts instances whose retry chain got deep (near the
	// irrevocable cliff) — the wasted-work signal that justifies
	// whole-structure (coarse) locking.
	deepW int

	// commitsW and confAbortsW are decaying windowed counters that
	// implement the paper's decision (1): whether this atomic block is
	// contended enough to lock at all ("based on the frequency of
	// contention aborts", Section 2). Both halve when commitsW reaches
	// the window size.
	commitsW, confAbortsW int
}

// noteCommit updates the contention-rate window.
func (c *ABContext) noteCommit(window int) {
	c.commitsW++
	if c.commitsW >= window {
		c.commitsW /= 2
		c.confAbortsW /= 2
		c.deepW /= 2
	}
}

// contended reports whether recent conflict-abort frequency justifies
// arming advisory locks (decision 1). The threshold — roughly two
// conflict aborts for every three commits — keeps moderately contended
// structures (vacation's trees) running unlocked while catching the
// pathological ones.
func (c *ABContext) contended() bool {
	return 3*c.confAbortsW >= 2*c.commitsW+4
}

// contendedHeavily sets the (stricter) bar for coarse-grain locking and
// promotion: those modes serialize whole structures, so they only pay
// when transactions are burning long retry chains (heading for the
// irrevocable cliff), not merely aborting once in a while.
func (c *ABContext) contendedHeavily() bool {
	return 8*c.deepW >= c.commitsW+8
}

type abortRecord struct {
	anchorSite uint32 // resolved anchor site ID (0 = none/empty entry)
	addr       mem.Addr
}

// ctx returns (creating on demand) the ABContext for an atomic block.
func (th *Thread) ctx(ab *prog.AtomicBlock) *ABContext {
	if ab.ID >= len(th.ctxs) {
		th.ctxs = append(th.ctxs, make([]*ABContext, ab.ID+1-len(th.ctxs))...)
	}
	c := th.ctxs[ab.ID]
	if c == nil {
		c = &ABContext{ab: ab, m: th.rt.perAB[ab.ID]}
		if c.m == nil {
			c.m = &ABMetrics{Name: ab.Name}
			th.rt.perAB[ab.ID] = c.m
		}
		if th.rt.comp != nil {
			c.u = th.rt.comp.Unified[ab]
			if c.u == nil {
				panic(fmt.Sprintf("stagger: atomic block %q not compiled", ab.Name))
			}
		}
		th.ctxs[ab.ID] = c
	}
	return c
}

// Atomic executes body as one instance of atomic block ab on the
// thread's core, applying the runtime's mode: baseline retry loop,
// AddrOnly's fixed head-of-block lock, or full staggered transactions
// with ALPs armed by the locking policy. The body receives the Thread
// itself as its backend.Ctx (the arena contract all backends share).
func (th *Thread) Atomic(ab *prog.AtomicBlock, body func(backend.Ctx)) {
	c := th.c
	th.abc, th.body = th.ctx(ab), body
	// Snapshot the core's cycle counters around the instance: the deltas
	// are this atomic block's share of the machine-wide breakdown (pure
	// accounting on already-maintained counters — no simulated events, so
	// the schedule and all virtual times are unchanged).
	st := c.Stats()
	before := *st
	// Tag the core with this block for the duration of the instance, so
	// conflicts it inflicts on others are attributed to the right block
	// (pure bookkeeping; no simulated events).
	c.SetABTag(ab.ID)
	c.Atomic(th.rt.retry, th.hooks, th.run)
	c.SetABTag(0)
	abm := th.abc.m
	abm.UsefulCycles += st.UsefulTxCycles - before.UsefulTxCycles
	abm.WastedCycles += st.WastedTxCycles - before.WastedTxCycles
	abm.LockWaitCycles += st.WaitCycles[htm.WaitLock] - before.WaitCycles[htm.WaitLock]
	abm.BackoffCycles += st.WaitCycles[htm.WaitBackoff] - before.WaitCycles[htm.WaitBackoff]
	abm.GlobalWaitCycles += st.WaitCycles[htm.WaitGlobal] - before.WaitCycles[htm.WaitGlobal]
	abm.NTTxCycles += st.NTTxCycles - before.NTTxCycles
}

func (th *Thread) onBegin(attempt int) {
	// Restore the armed anchor for this instance (the paper clears
	// activeAnchor inside the transaction after locking and restores it
	// at the next begin).
	abc := th.abc
	th.armedAnchor = abc.activeAnchor
	if th.rt.cfg.Mode == ModeAddrOnly && abc.blockAddr != 0 {
		// AddrOnly: one fixed ALP at the start of the block, precise
		// mode only.
		th.acquireLockFor(abc.blockAddr)
		th.armedAnchor = 0
	}
}

func (th *Thread) onAbort(info htm.AbortInfo, attempt int) {
	th.abc.m.Aborts[info.Reason]++
	th.releaseLock()
	th.activate(info, attempt)
}

func (th *Thread) onCommit(irrevocable bool) {
	rt, abc := th.rt, th.abc
	abc.m.Commits++
	abc.noteCommit(rt.cfg.RateWindow)
	contended := th.lockContended()
	if contended {
		rt.Metrics.ContendedCommits++
	}
	noContention := th.lock != 0 && !contended
	th.releaseLock()
	if noContention {
		// Shift an empty record into the history to decay stale
		// conflict patterns and avoid over-locking (Section 5.2): once
		// the pattern has decayed below threshold, the ALP deactivates
		// and full concurrency resumes.
		abc.appendHistory(rt.cfg.HistLen, abortRecord{})
		if (abc.activeAnchor != 0 || abc.blockAddr != 0) &&
			abc.countAnchor(abc.activeAnchor) <= rt.cfg.PCThr &&
			abc.countAddr(abc.blockAddr) <= rt.cfg.AddrThr {
			abc.activeAnchor = 0
			abc.blockAddr = 0
		}
	}
	// Rate-based re-check of decision (1): if conflict aborts are no
	// longer frequent — typically BECAUSE the advisory lock is working —
	// disarm and probe whether full concurrency is safe again. Re-arming
	// is cheap if contention returns.
	if (abc.activeAnchor != 0 || abc.blockAddr != 0) &&
		!abc.contended() && !abc.contendedHeavily() {
		abc.activeAnchor = 0
		abc.blockAddr = 0
	}
}

func (th *Thread) onIrrevocable() {
	// Irrevocable mode is already globally serialized; drop any advisory
	// lock state for this instance.
	th.armedAnchor = 0
	if th.rt.cfg.UnsafeEarlyGlobalRelease {
		th.c.NTStore(th.c.Machine().GlobalLock, 0)
	}
}
