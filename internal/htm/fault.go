package htm

import (
	"fmt"
	"strings"
)

// FaultInjector is the hook surface for deterministic fault injection
// (implemented by internal/chaos). A machine with no injector takes none
// of these calls, so the hooks are zero-impact when chaos is disabled:
// Core.event tests for an injector once and takes chaosEvent's path only
// when one is installed.
//
// All methods are consulted at globally ordered simulation points (memory
// events, nontransactional stores), under the engine's token discipline:
// exactly one core queries the injector at a time, and the query order is
// a pure function of the simulated execution. An injector that answers
// deterministically — e.g. from per-core seeded streams — therefore
// yields a fault schedule that is exactly reproducible from its seed.
type FaultInjector interface {
	// SpuriousAbort is consulted at each transactional memory event; when
	// it fires, the active transaction aborts with the returned
	// architectural reason (modeling interrupts, capacity aliasing, and
	// other best-effort-HTM sources of non-conflict aborts).
	SpuriousAbort(core int) (AbortReason, bool)
	// NTDelay returns extra stall cycles for a nontransactional store or
	// CAS (a transient slow path in the store buffer / memory system).
	NTDelay(core int) uint64
	// StallJitter returns extra stall cycles charged at a memory event
	// (per-core scheduling noise).
	StallJitter(core int) uint64
}

// SetFaultInjector installs a fault injector. Call before Run; a nil
// injector (the default) disables all fault hooks.
func (m *Machine) SetFaultInjector(fi FaultInjector) {
	if m.ran {
		panic("htm: SetFaultInjector after Run")
	}
	m.chaos = fi
}

// FaultInjector returns the installed fault injector (nil = none), so a
// runtime built on the machine can find the injector's other hooks
// (stagger's lost lock releases) without a second installation.
func (m *Machine) FaultInjector() FaultInjector { return m.chaos }

// watchdogTraceN is how many trailing transaction events a machine with a
// watchdog retains for the failure report.
const watchdogTraceN = 32

// WatchdogError reports a run whose virtual time exceeded
// Config.WatchdogCycles — the simulator's stand-in for a hung or
// livelocked execution. It carries the last recorded transaction events
// so the failure is diagnosable instead of a silent hang.
type WatchdogError struct {
	// Core is the core whose clock first crossed the bound.
	Core int
	// Cycles is that core's virtual clock at the trip point.
	Cycles uint64
	// Limit is the configured bound.
	Limit uint64
	// Trace holds the last transaction events before the trip (oldest
	// first; empty if no transactions ran).
	Trace []TraceEvent
}

// Error implements error, including the trailing trace events.
func (e *WatchdogError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "htm: watchdog: core %d reached %d cycles (limit %d) without finishing",
		e.Core, e.Cycles, e.Limit)
	if len(e.Trace) > 0 {
		fmt.Fprintf(&b, "; last %d events:\n%s", len(e.Trace), FormatTrace(e.Trace))
	}
	return b.String()
}

// checkWatchdog trips the progress watchdog once the core's clock passes
// the configured bound, and abandons a cancelled run. It runs at every
// memory event and after compute bursts, so even a core that never
// performs another memory access cannot spin forever. On a machine with
// neither armed it is a bool test and one compare.
func (c *Core) checkWatchdog() {
	if c.m.cancelArmed || c.clock > c.m.wdLimit {
		c.tripWatchdog()
	}
}

// tripWatchdog is checkWatchdog's slow path: cancellation first, then the
// cycle bound.
func (c *Core) tripWatchdog() {
	c.checkCancel()
	if c.clock <= c.m.wdLimit {
		return
	}
	panic(&WatchdogError{
		Core:   c.id,
		Cycles: c.clock,
		Limit:  c.m.cfg.WatchdogCycles,
		Trace:  c.m.lastEvents.events(),
	})
}
