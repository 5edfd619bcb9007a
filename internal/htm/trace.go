package htm

import (
	"fmt"
	"strings"

	"repro/internal/mem"
)

// TraceEvent is one recorded simulation event. Tracing is optional (off
// by default); when enabled via Machine.EnableTrace, the machine records
// transaction begins, commits, and aborts with their virtual times,
// giving a complete, deterministic timeline for debugging contention
// pathologies (which transaction killed which, where, and when).
type TraceEvent struct {
	Time uint64
	Core int
	Kind TraceKind

	// Abort events carry the abort details.
	Reason   AbortReason
	ConfAddr mem.Addr
	ConfPC   uint64
	ByCore   int
}

// TraceKind classifies trace events.
type TraceKind uint8

const (
	// TraceBegin marks a transaction attempt starting.
	TraceBegin TraceKind = iota
	// TraceCommit marks a successful commit.
	TraceCommit
	// TraceAbort marks an aborted attempt.
	TraceAbort

	// The kinds below are extended (observability) events. They are
	// recorded only on machines with EnableTraceExt, so the default trace
	// stream — and everything pinned to it, like the golden engine trace —
	// is unchanged by their existence.

	// TraceLockAcquire marks an advisory-lock acquisition; ConfAddr is the
	// lock word's address.
	TraceLockAcquire
	// TraceLockRelease marks an advisory-lock release; ConfAddr is the
	// lock word's address.
	TraceLockRelease
	// TraceIrrevBegin marks entry to an irrevocable (global-lock) section.
	TraceIrrevBegin
	// TraceIrrevEnd marks the end of an irrevocable section.
	TraceIrrevEnd
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceBegin:
		return "begin"
	case TraceCommit:
		return "commit"
	case TraceAbort:
		return "abort"
	case TraceLockAcquire:
		return "ab-acq"
	case TraceLockRelease:
		return "ab-rel"
	case TraceIrrevBegin:
		return "irrev"
	case TraceIrrevEnd:
		return "irrev-end"
	default:
		return fmt.Sprintf("TraceKind(%d)", uint8(k))
	}
}

// EnableTrace turns on event recording, bounded to at most limit events
// (0 = unlimited). Call before Run. A bounded buffer is pre-sized to its
// limit so recording never reallocates mid-run.
func (m *Machine) EnableTrace(limit int) {
	m.trace = &traceBuf{limit: limit}
	if limit > 0 {
		m.trace.events = make([]TraceEvent, 0, limit)
	}
}

// EnableTraceExt is EnableTrace plus the extended observability events:
// advisory-lock acquire/release annotations (Core.Annotate) and
// irrevocable section boundaries. Extended events exist for trace export
// (internal/obs); machines without this call never record them, so the
// baseline event stream is bit-identical whether the kinds exist or not.
func (m *Machine) EnableTraceExt(limit int) {
	m.EnableTrace(limit)
	m.extTrace = true
}

// Annotate records an extended trace event at the core's current virtual
// time. It is the hook higher-level runtimes (advisory locks in
// internal/stagger) use to land their own lifecycle events in the same
// deterministic stream as the hardware's begin/commit/abort. Without
// EnableTraceExt it costs one cached-boolean test and no allocation, so
// hot paths may call it unconditionally.
func (c *Core) Annotate(kind TraceKind, addr mem.Addr) {
	if c.traceOn && c.m.extTrace {
		c.m.record(TraceEvent{Time: c.clock, Core: c.id, Kind: kind, ConfAddr: addr})
	}
}

// Trace returns the recorded events in execution order — the order the
// engine's token visited them, which is monotone per core but not
// globally sorted by virtual time (a begin records mid-segment). Empty
// when tracing was not enabled.
func (m *Machine) Trace() []TraceEvent {
	if m.trace == nil {
		return nil
	}
	return m.trace.events
}

// FormatTrace renders events as one line each, for dumps and tests.
func FormatTrace(events []TraceEvent) string {
	var b strings.Builder
	for _, e := range events {
		switch e.Kind {
		case TraceAbort:
			fmt.Fprintf(&b, "%10d core%-2d %-6s %-9s addr=%#x pc=%#x by=core%d\n",
				e.Time, e.Core, e.Kind, e.Reason, uint64(e.ConfAddr), e.ConfPC, e.ByCore)
		case TraceLockAcquire, TraceLockRelease:
			fmt.Fprintf(&b, "%10d core%-2d %-6s lock=%#x\n",
				e.Time, e.Core, e.Kind, uint64(e.ConfAddr))
		default:
			fmt.Fprintf(&b, "%10d core%-2d %-6s\n", e.Time, e.Core, e.Kind)
		}
	}
	return b.String()
}

type traceBuf struct {
	events []TraceEvent
	limit  int
}

// traceRing keeps the LAST n events (the watchdog's failure report),
// unlike traceBuf which keeps the first ones. It exists only on machines
// with a watchdog configured, so the default hot path pays nothing.
type traceRing struct {
	buf  []TraceEvent
	n    int // events ever added
	next int
}

func newTraceRing(n int) *traceRing { return &traceRing{buf: make([]TraceEvent, n)} }

// reset forgets every event, keeping the ring: events reads no slot
// beyond the n added since.
func (r *traceRing) reset() {
	if r != nil {
		r.n, r.next = 0, 0
	}
}

func (r *traceRing) add(e TraceEvent) {
	if r == nil {
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	r.n++
}

// events returns the retained events, oldest first.
func (r *traceRing) events() []TraceEvent {
	if r == nil {
		return nil
	}
	if r.n <= len(r.buf) {
		return append([]TraceEvent(nil), r.buf[:r.n]...)
	}
	out := make([]TraceEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

func (t *traceBuf) add(e TraceEvent) {
	if t == nil {
		return
	}
	if t.limit > 0 && len(t.events) >= t.limit {
		return
	}
	t.events = append(t.events, e)
}

// recordBegin/recordCommit/recordAbort are called from the transaction
// paths; they are no-ops unless tracing is enabled. Core.traceOn caches
// "some sink exists" (set once at Run), so the untraced hot path pays a
// single predictable branch, and a traced machine dispatches both sinks
// from one constructed event.
func (c *Core) recordBegin() {
	if c.traceOn {
		c.m.record(TraceEvent{Time: c.clock, Core: c.id, Kind: TraceBegin})
	}
}

func (c *Core) recordCommit() {
	if c.traceOn {
		c.m.record(TraceEvent{Time: c.clock, Core: c.id, Kind: TraceCommit})
	}
}

func (c *Core) recordAbort(info AbortInfo) {
	if c.traceOn {
		c.m.record(TraceEvent{
			Time: c.clock, Core: c.id, Kind: TraceAbort,
			Reason: info.Reason, ConfAddr: info.ConfAddr,
			ConfPC: info.ConfPC, ByCore: info.ByCore,
		})
	}
}

// record fans one event out to every installed sink.
func (m *Machine) record(e TraceEvent) {
	m.trace.add(e)
	m.lastEvents.add(e)
}
