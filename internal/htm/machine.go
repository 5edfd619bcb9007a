package htm

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Machine is a simulated multicore with best-effort HTM.
//
// Construct one with New, allocate and initialize simulated data through
// Mem and Alloc, then call Run with one body per thread. A machine runs
// once: after Run returns, read the statistics and discard it. The one
// exception is Reset, through which the harness reuses a machine's
// storage across the schedules of an exploration campaign.
type Machine struct {
	cfg   Config
	Mem   *mem.Memory
	Alloc *mem.Allocator

	eng   *coopEngine
	cores []*Core

	// lines is the unified per-line coherence table: the transactional
	// directory (reader/writer masks — eager mode keeps at most one
	// writer by construction; lazy mode allows several until commit
	// resolves them), every core's private-L2 presence bit, and the
	// shared-L3 presence bit, one flat entry per touched line.
	lines lineTable

	// memBusy models per-channel DRAM occupancy (cycle when each channel
	// becomes free again).
	memBusy []uint64

	// GlobalLock is the address of the irrevocable-mode global lock word.
	GlobalLock mem.Addr

	trace *traceBuf
	// extTrace additionally records extended observability events (lock
	// annotations, irrevocable boundaries); see EnableTraceExt.
	extTrace bool
	// lastEvents retains the trailing transaction events for the watchdog
	// failure report; nil unless WatchdogCycles is configured.
	lastEvents *traceRing
	// wdLimit is the clock past which the watchdog trips: WatchdogCycles,
	// or the largest clock when that is 0, so the check is one compare.
	wdLimit uint64
	// chaos is the installed fault injector (nil = fault-free).
	chaos FaultInjector
	// sched is the installed adversarial scheduler (nil = baseline
	// smallest-virtual-time order).
	sched Scheduler
	// observer is the installed correctness oracle (nil = no logging).
	observer TxObserver
	ran      bool

	// cancelState arms caller-driven run abandonment (see cancel.go).
	cancelState
}

// New builds a machine from cfg: it allocates what a machine keeps for
// its whole life and then resets it, so Reset is the only code that
// gives a machine its initial state.
func New(cfg Config) *Machine {
	cfg.validate()
	m := &Machine{
		cfg:     cfg,
		Mem:     mem.New(),
		Alloc:   mem.NewAllocator(mem.Addr(cfg.HeapBase), cfg.HeapSize),
		memBusy: make([]uint64, cfg.MemChannels),
		cores:   make([]*Core, cfg.Cores),
	}
	if cfg.WatchdogCycles != 0 {
		n := cfg.WatchdogTrace
		if n <= 0 {
			n = watchdogTraceN
		}
		m.lastEvents = newTraceRing(n)
	}
	for i := range m.cores {
		m.cores[i] = &Core{m: m, id: i, l1: newL1(cfg.L1Lines, cfg.L1Ways)}
	}
	m.Reset()
	return m
}

// Reset returns a machine that has run, or whose run was abandoned part
// way, to the state New(m.Config()) builds, keeping its storage: memory
// pages are zeroed in place, the allocator is rewound (GlobalLock gets
// its address again), the coherence table is emptied at the size it grew
// to, and every installed hook (trace, fault injector, scheduler,
// observer, cancellation) is removed; each core keeps only its L1 array
// and the capacity of its tables. A run on a reset machine is
// indistinguishable from one on a new machine (TestResetEqualsNew). What
// Trace and Stats returned before the reset stays valid, since none of
// it is reused; addresses the allocator handed out do not. Reset exists
// for the harness's exploration campaigns (harness.Explore), which run
// one cell under hundreds of schedules; nothing else should need it.
func (m *Machine) Reset() {
	m.Mem.Zero()
	m.Alloc.Reset()
	// The global lock lives on its own line so subscribing to it never
	// falsely conflicts with application data.
	m.GlobalLock = m.Alloc.AllocLines(1)
	m.eng = nil
	m.lines.reset()
	clear(m.memBusy)
	m.trace, m.extTrace = nil, false
	m.lastEvents.reset()
	m.wdLimit = m.cfg.WatchdogCycles
	if m.wdLimit == 0 {
		m.wdLimit = ^uint64(0)
	}
	m.chaos, m.sched, m.observer = nil, nil, nil
	m.ran = false
	m.cancelArmed = false
	m.cancelled.Store(false)
	for _, c := range m.cores {
		c.reset()
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Core returns core i for inspection; during Run, each thread body
// receives its own core and must not touch others.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// entry returns the coherence entry for a line, creating it on demand.
// The pointer is invalidated by the next entry call: callers fetch it
// once per event and pass it down.
func (m *Machine) entry(line mem.Addr) *lineEntry {
	return m.lines.get(line)
}

// Run executes one body per simulated thread, thread i on core i, and
// blocks until all bodies return. It panics if more bodies than cores are
// supplied, if the machine has already run, or if the progress watchdog
// trips (use RunChecked to receive the watchdog failure as an error).
func (m *Machine) Run(bodies []func(c *Core)) {
	if err := m.RunChecked(bodies); err != nil {
		panic(err)
	}
}

// RunChecked is Run, but a tripped progress watchdog is returned as a
// *WatchdogError instead of panicking. Workload panics still propagate.
func (m *Machine) RunChecked(bodies []func(c *Core)) error {
	if m.ran {
		panic("htm: Machine.Run called twice")
	}
	m.ran = true
	if len(bodies) == 0 {
		return nil
	}
	if len(bodies) > len(m.cores) {
		panic(fmt.Sprintf("htm: %d thread bodies for %d cores", len(bodies), len(m.cores)))
	}
	m.eng = newCoopEngine(len(bodies), m.sched)
	traceOn := m.trace != nil || m.lastEvents != nil
	panics := make([]any, len(bodies))
	for i := range bodies {
		m.cores[i].traceOn = traceOn
	}
	m.eng.run(m, bodies, panics)
	// Workload bugs outrank watchdog trips: once one core exceeds the
	// cycle bound, its peers usually trip too, but a genuine panic is the
	// root cause worth surfacing. Cancellation outranks the watchdog in
	// turn — a cancelled run's cores may blow the cycle bound while they
	// unwind, and the caller's hang-up is the root cause.
	var wd *WatchdogError
	var cancel *CancelError
	for _, p := range panics {
		switch v := p.(type) {
		case nil:
		case *WatchdogError:
			if wd == nil || v.Cycles < wd.Cycles {
				wd = v
			}
		case *CancelError:
			if cancel == nil || v.Cycles < cancel.Cycles {
				cancel = v
			}
		default:
			panic(p)
		}
	}
	if cancel != nil {
		return cancel
	}
	if wd != nil {
		return wd
	}
	return nil
}

// Stats aggregates per-core statistics after Run.
func (m *Machine) Stats() Stats {
	var s Stats
	s.PerCore = make([]CoreStats, len(m.cores))
	for i, c := range m.cores {
		s.PerCore[i] = c.stats
		s.add(&c.stats)
	}
	if e := m.eng; e != nil {
		s.Engine = e.counts
		s.Engine.Keeps = e.counts.Syncs - e.counts.Handoffs
	}
	return s
}

// lookupLatency classifies a memory access by core c to the given line
// (whose coherence entry e the caller already fetched for this event) and
// returns its latency, updating the cache models. Speculative lines
// already in the core's read/write sets are pinned in L1; if an insertion
// would have to evict one, the core takes a capacity (overflow) abort.
func (m *Machine) lookupLatency(c *Core, line mem.Addr, e *lineEntry) uint64 {
	if c.l1.hit(line) {
		c.stats.L1Hits++
		return m.cfg.L1Lat
	}
	bit := uint32(1) << uint(c.id)
	var lat uint64
	switch {
	case e.writers&^bit != 0:
		// Another core holds the line dirty in its speculative write set:
		// a cache-to-cache transfer, L3-class latency.
		c.stats.L3Hits++
		lat = m.cfg.L3Lat
	case e.l2mask&bit != 0:
		c.stats.L2Hits++
		lat = m.cfg.L2Lat
	default:
		if e.inL3 {
			c.stats.L3Hits++
			lat = m.cfg.L3Lat
		} else {
			c.stats.MemAccesses++
			lat = m.dramLatency(c, line)
			e.inL3 = true
		}
	}
	e.l2mask |= bit
	if !c.l1.insert(line, func(l mem.Addr) bool {
		return c.txs.lookup(l) != nil
	}) {
		// Every way in the set already holds a speculative line: the new
		// line cannot be cached without losing transactional tracking.
		c.abortSelf(AbortInfo{Reason: AbortOverflow, ByCore: c.id})
	}
	return lat
}

// invalidateOthers models the coherence invalidation a store's
// read-for-ownership broadcasts: every other core loses its cached copy
// of the line, so its next access pays a transfer/L3-class latency. This
// is what makes writer-bounced lines (list cells, queue heads, statistics
// words) genuinely expensive to re-read.
// A core's L1 contents are a subset of its L2 presence bits (lines enter
// both together in lookupLatency and leave both together here), so only
// cores with the L2 bit set can hold the line in L1 — the invalidation
// walks that mask instead of every core.
func (m *Machine) invalidateOthers(e *lineEntry, line mem.Addr, except int) {
	others := e.l2mask &^ (1 << uint(except))
	e.l2mask &= 1 << uint(except)
	for others != 0 {
		id := bits.TrailingZeros32(others)
		others &^= 1 << uint(id)
		m.cores[id].l1.invalidate(line)
	}
}

// dramLatency queues the access behind the line's memory channel: the
// access starts when the channel frees up and occupies it for
// MemOccupancy cycles, so concurrent misses from many cores serialize on
// the two channels — the bandwidth wall that keeps memory-bound kernels
// from scaling linearly.
func (m *Machine) dramLatency(c *Core, line mem.Addr) uint64 {
	ch := int((uint64(line) / mem.LineSize) % uint64(len(m.memBusy)))
	start := c.clock
	if m.memBusy[ch] > start {
		start = m.memBusy[ch]
	}
	m.memBusy[ch] = start + m.cfg.MemOccupancy
	return (start - c.clock) + m.cfg.MemLat
}
