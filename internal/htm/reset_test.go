package htm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
)

// logObserver writes every observer call down, so two runs' observer
// views compare as strings.
type logObserver struct{ b strings.Builder }

func (o *logObserver) OnCommit(core int, irrev bool, tag any, reads, writes []mem.Word) {
	fmt.Fprintf(&o.b, "commit c%d irrev=%v tag=%v r=%v w=%v\n", core, irrev, tag, reads, writes)
}

func (o *logObserver) OnStore(core int, addr mem.Addr, val uint64) {
	fmt.Fprintf(&o.b, "store c%d %#x=%d\n", core, uint64(addr), val)
}

// resetOutcome is everything of a run that a leftover of an earlier run
// on the same machine could move.
type resetOutcome struct {
	stats Stats
	trace string
	obs   string
	err   string
}

// resetProgramA fills what Reset has to empty: it stores to more lines
// than the coherence table starts with, fills L1 sets, queues on both
// DRAM channels, contends (so the backoff PRNGs are seeded and drawn
// from) and leaves every core's clock far from zero. With hang set its
// core 0 never finishes: it spins inside a transaction until the watchdog
// abandons the run with speculative state, directory bits and observer
// logs in place.
func resetProgramA(m *Machine, hang bool) []func(*Core) {
	const lines = 1500 // > lineTableMinSize*3/4: the table grows
	base := m.Alloc.AllocLines(lines)
	hot := m.Alloc.AllocLines(1)
	bodies := make([]func(*Core), 3)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *Core) {
			for k := tid; k < lines; k += len(bodies) {
				c.NTStore(base+mem.Addr(k*mem.LineSize), uint64(k)+1)
			}
			for k := 0; k < 30; k++ {
				c.SetOpTag(k)
				c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
					v := c.Load(0x100+uint64(tid), 1, hot)
					c.Compute(40)
					c.Store(0x110+uint64(tid), 2, hot, v+1)
				})
				c.Annotate(TraceLockAcquire, hot)
			}
			if hang && tid == 0 {
				c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
					c.Store(0x120, 3, base, 99)
					for {
						c.Load(0x124, 4, hot+8)
					}
				})
			}
		}
	}
	return bodies
}

// resetProgramB reads before it writes, at the addresses A used (the
// allocator hands them out again), and is timing-sensitive end to end:
// a stale page, L1 line, coherence bit, channel clock, PRNG or allocator
// position each shows in its statistics, trace or final memory.
func resetProgramB(m *Machine) []func(*Core) {
	const lines = 64
	base := m.Alloc.AllocLines(lines)
	ctr := m.Alloc.AllocWords(2)
	bodies := make([]func(*Core), 4)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *Core) {
			var sum uint64
			for k := 0; k < lines; k++ {
				sum += c.NTLoad(base + mem.Addr(k*mem.LineSize))
			}
			for k := 0; k < 25; k++ {
				c.SetOpTag(tid*100 + k)
				c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
					v := c.Load(0x200+uint64(tid), 5, ctr)
					w := c.Load(0x204+uint64(tid), 6, base+mem.Addr((k%lines)*mem.LineSize))
					c.Compute(20 + tid)
					c.Store(0x208+uint64(tid), 7, ctr, v+w+sum+1)
					c.Store(0x20c+uint64(tid), 8, base+mem.Addr(((k+tid)%lines)*mem.LineSize), v)
				})
				c.Annotate(TraceLockRelease, ctr)
			}
			c.NTCas(ctr+8, uint64(tid), uint64(tid)+1)
		}
	}
	return bodies
}

// runForReset installs the hooks the variant asks for on m, runs prog
// and returns what it produced.
func runForReset(m *Machine, observed bool, prog func(*Machine) []func(*Core)) resetOutcome {
	m.EnableTraceExt(0)
	var obs *logObserver
	if observed {
		obs = new(logObserver)
		m.SetObserver(obs)
	}
	var out resetOutcome
	if err := m.RunChecked(prog(m)); err != nil {
		out.err = err.Error()
	}
	out.stats = m.Stats()
	out.trace = FormatTrace(m.Trace())
	if obs != nil {
		out.obs = obs.b.String()
	}
	return out
}

// TestResetEqualsNew: program B on a machine that ran program A and was
// reset equals B on a new machine — statistics (engine counts included),
// the whole extended trace, the observer's view and final memory — in
// eager and lazy mode, with and without an observer, and after an A that
// the watchdog abandoned inside a transaction.
func TestResetEqualsNew(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		for _, observed := range []bool{false, true} {
			for _, hang := range []bool{false, true} {
				t.Run(fmt.Sprintf("lazy=%v/observer=%v/abandonedA=%v", lazy, observed, hang), func(t *testing.T) {
					cfg := smallConfig(4)
					cfg.Lazy = lazy
					cfg.WatchdogCycles = 2_000_000
					cfg.Seed = 9

					fresh := New(cfg)
					want := runForReset(fresh, observed, resetProgramB)
					if want.err != "" {
						t.Fatalf("program B on a new machine: %s", want.err)
					}

					m := New(cfg)
					a := runForReset(m, observed, func(m *Machine) []func(*Core) { return resetProgramA(m, hang) })
					if hang != strings.Contains(a.err, "watchdog") {
						t.Fatalf("program A: err = %q, meant to be abandoned = %v", a.err, hang)
					}
					if len(m.lines.slots) <= lineTableMinSize {
						t.Fatalf("program A left the coherence table at %d slots: it was meant to grow it", len(m.lines.slots))
					}
					m.Reset()
					if m.GlobalLock != fresh.GlobalLock || m.Alloc.Used() != mem.LineSize {
						t.Fatalf("after Reset: GlobalLock %#x, %d bytes allocated; a new machine has %#x and %d",
							uint64(m.GlobalLock), m.Alloc.Used(), uint64(fresh.GlobalLock), mem.LineSize)
					}
					if n := len(m.lastEvents.events()); n != 0 {
						t.Fatalf("after Reset the watchdog ring still reports %d events", n)
					}
					got := runForReset(m, observed, resetProgramB)

					if !reflect.DeepEqual(got.stats, want.stats) {
						t.Errorf("statistics differ:\nreset %+v\nnew   %+v", got.stats, want.stats)
					}
					if got.trace != want.trace {
						t.Errorf("extended traces differ (%d vs %d bytes)", len(got.trace), len(want.trace))
					}
					if got.obs != want.obs {
						t.Errorf("observer logs differ (%d vs %d bytes)", len(got.obs), len(want.obs))
					}
					if got.err != want.err {
						t.Errorf("errors differ: %q vs %q", got.err, want.err)
					}
					if d := m.Mem.Diff(fresh.Mem, 4); len(d) != 0 {
						t.Errorf("final memory differs at %#x", d)
					}
				})
			}
		}
	}
}
