package htm

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// fakeInjector fires a spurious abort on every Nth transactional event,
// plus fixed NT delays and stall jitter. (The real deterministic injector
// lives in internal/chaos; htm's own tests use a local fake to keep the
// package dependency-free.)
type fakeInjector struct {
	abortEvery int
	reason     AbortReason
	delay      uint64
	jitter     uint64
	events     int
}

func (f *fakeInjector) SpuriousAbort(core int) (AbortReason, bool) {
	f.events++
	if f.abortEvery > 0 && f.events%f.abortEvery == 0 {
		r := f.reason
		if r == AbortNone {
			r = AbortSpurious
		}
		return r, true
	}
	return AbortNone, false
}

func (f *fakeInjector) NTDelay(core int) uint64     { return f.delay }
func (f *fakeInjector) StallJitter(core int) uint64 { return f.jitter }

// TestSpuriousAbortDeliveredAndRetried: an injected abort must unwind the
// attempt like a real conflict, count under AbortSpurious, and leave the
// retry loop to finish the block correctly (speculatively or irrevocably).
func TestSpuriousAbortDeliveredAndRetried(t *testing.T) {
	m := New(smallConfig(1))
	fi := &fakeInjector{abortEvery: 3}
	m.SetFaultInjector(fi)
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		for k := 0; k < 10; k++ {
			c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
				v := c.Load(0x100, 1, a)
				c.Store(0x104, 2, a, v+1)
			})
		}
	}})
	if got := m.Mem.Load(a); got != 10 {
		t.Fatalf("counter = %d, want 10 (spurious aborts broke atomicity)", got)
	}
	s := m.Stats()
	if s.Commits != 10 {
		t.Fatalf("commits = %d, want 10", s.Commits)
	}
	if s.Aborts[AbortSpurious] == 0 {
		t.Fatal("no spurious aborts recorded despite abortEvery=3")
	}
	if s.Aborts[AbortConflict] != 0 {
		t.Fatalf("single core recorded %d conflict aborts", s.Aborts[AbortConflict])
	}
}

// TestSpuriousAbortCustomReason: the injector's reason code is the one
// that lands in the stats (chaos campaigns use AbortConflict to stress
// the locking policy with causeless conflicts).
func TestSpuriousAbortCustomReason(t *testing.T) {
	m := New(smallConfig(1))
	m.SetFaultInjector(&fakeInjector{abortEvery: 2, reason: AbortExplicit})
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
			c.Store(0x100, 1, a, 1)
		})
	}})
	s := m.Stats()
	if s.Aborts[AbortExplicit] == 0 {
		t.Fatalf("no aborts under the injected reason; stats %+v", s.Aborts)
	}
}

// TestIrrevocableImmuneToSpuriousAborts: the irrevocable fallback runs
// non-speculatively, so even an injector that aborts every transactional
// event cannot starve it — the guaranteed-progress path of the chaos
// campaigns.
func TestIrrevocableImmuneToSpuriousAborts(t *testing.T) {
	m := New(smallConfig(1))
	m.SetFaultInjector(&fakeInjector{abortEvery: 1}) // every event aborts
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		opts := DefaultAtomicOpts()
		opts.MaxRetries = 2
		for k := 0; k < 5; k++ {
			c.Atomic(opts, TxHooks{}, func(c *Core) {
				v := c.Load(0x100, 1, a)
				c.Store(0x104, 2, a, v+1)
			})
		}
	}})
	if got := m.Mem.Load(a); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	s := m.Stats()
	if s.IrrevocableCommits != 5 {
		t.Fatalf("irrevocable commits = %d, want 5 (all speculation poisoned)", s.IrrevocableCommits)
	}
}

// TestNTDelayCharged: injected NT-store delays must advance the core's
// clock and be charged to the fault wait bucket.
func TestNTDelayCharged(t *testing.T) {
	run := func(delay uint64) Stats {
		m := New(smallConfig(1))
		m.SetFaultInjector(&fakeInjector{delay: delay})
		a := m.Alloc.AllocLines(1)
		m.Run([]func(*Core){func(c *Core) {
			for k := 0; k < 8; k++ {
				c.NTStore(a, uint64(k))
			}
		}})
		return m.Stats()
	}
	base := run(0)
	slow := run(200)
	if slow.WaitCycles[WaitFault] != 8*200 {
		t.Fatalf("fault wait = %d, want %d", slow.WaitCycles[WaitFault], 8*200)
	}
	if slow.Makespan != base.Makespan+8*200 {
		t.Fatalf("makespan %d, want base %d + %d", slow.Makespan, base.Makespan, 8*200)
	}
}

// TestWatchdogTripsOnComputeLoop: a core that only computes (no memory
// events) must still trip the watchdog instead of hanging — alone, and as
// one of the exit shape's sixteen cores, where the tripped body's exit
// wakes whichever participant waits in its coroutine.
func TestWatchdogTripsOnComputeLoop(t *testing.T) {
	computeLoop := func(c *Core) {
		for {
			c.Compute(1000)
		}
	}
	cfg := smallConfig(1)
	cfg.WatchdogCycles = 50_000
	m := New(cfg)
	err := m.RunChecked([]func(*Core){computeLoop})
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WatchdogError", err)
	}
	if we.Cycles <= we.Limit || we.Limit != 50_000 {
		t.Fatalf("trip point %d not past limit %d", we.Cycles, we.Limit)
	}
	if !strings.Contains(we.Error(), "watchdog") {
		t.Fatalf("error text %q lacks 'watchdog'", we.Error())
	}

	cfg = smallConfig(exitCores)
	cfg.WatchdogCycles = 10_000 // far past every other core's total
	bodies := exitBodies()
	rounds := bodies[9]
	bodies[9] = func(c *Core) {
		rounds(c)
		computeLoop(c)
	}
	m = New(cfg)
	if err := m.RunChecked(bodies); !errors.As(err, &we) || we.Core != 9 {
		t.Fatalf("%d cores: err = %v, want core 9's *WatchdogError", exitCores, err)
	}
	for i, cs := range m.Stats().PerCore {
		if i != 9 && cs.FinalClock != exitClock(i) {
			t.Fatalf("core %d finished at %d, want %d", i, cs.FinalClock, exitClock(i))
		}
	}
}

// TestWatchdogCarriesTrace: when transactions ran before the trip, the
// error must carry the trailing events for diagnosis.
func TestWatchdogCarriesTrace(t *testing.T) {
	cfg := smallConfig(1)
	cfg.WatchdogCycles = 100_000
	m := New(cfg)
	a := m.Alloc.AllocLines(1)
	err := m.RunChecked([]func(*Core){func(c *Core) {
		for {
			c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
				c.Store(0x100, 1, a, 1)
			})
		}
	}})
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WatchdogError", err)
	}
	if len(we.Trace) == 0 {
		t.Fatal("watchdog error carries no trace events")
	}
	if len(we.Trace) > watchdogTraceN {
		t.Fatalf("trace holds %d events, ring is %d", len(we.Trace), watchdogTraceN)
	}
	if !strings.Contains(we.Error(), "last") {
		t.Fatalf("error text %q does not mention the trace", we.Error())
	}
}

// TestWatchdogQuietWhenUnderLimit: a bounded run with a generous watchdog
// must behave exactly like an unbounded one.
func TestWatchdogQuietWhenUnderLimit(t *testing.T) {
	run := func(wd uint64) Stats {
		cfg := smallConfig(2)
		cfg.WatchdogCycles = wd
		m := New(cfg)
		a := m.Alloc.AllocLines(1)
		m.Run([]func(*Core){
			func(c *Core) {
				for k := 0; k < 20; k++ {
					c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
						v := c.Load(0x100, 1, a)
						c.Store(0x104, 2, a, v+1)
					})
				}
			},
			func(c *Core) {
				for k := 0; k < 20; k++ {
					c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
						v := c.Load(0x200, 3, a)
						c.Store(0x204, 4, a, v+1)
					})
				}
			},
		})
		return m.Stats()
	}
	base := run(0)
	bounded := run(1 << 40)
	if !reflect.DeepEqual(base, bounded) {
		t.Fatalf("watchdog changed execution:\nbase    %+v\nbounded %+v", base, bounded)
	}
}

// TestRunCheckedRethrowsWorkloadPanics: only watchdog trips become
// errors; genuine workload bugs must still surface as panics — from a
// lone core, and from one of the exit shape's sixteen, whose recovered
// panic ends its body like a return.
func TestRunCheckedRethrowsWorkloadPanics(t *testing.T) {
	rethrown := func(m *Machine, bodies []func(*Core)) (r any) {
		defer func() { r = recover() }()
		m.RunChecked(bodies)
		return nil
	}
	bug := func(*Core) { panic("workload bug") }
	if r := rethrown(New(smallConfig(1)), []func(*Core){bug}); r != "workload bug" {
		t.Fatalf("one core: recovered %v, want the workload panic", r)
	}
	bodies := exitBodies()
	rounds := bodies[7]
	bodies[7] = func(c *Core) {
		rounds(c)
		bug(c)
	}
	if r := rethrown(New(smallConfig(exitCores)), bodies); r != "workload bug" {
		t.Fatalf("%d cores: recovered %v, want the workload panic", exitCores, r)
	}
}
