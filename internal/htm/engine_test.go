package htm

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mem"
)

// TestEngineGlobalOrderByVirtualTime: across many cores with staggered
// start offsets, globally visible events must occur in nondecreasing
// virtual-time order (ties broken by core ID).
func TestEngineGlobalOrderByVirtualTime(t *testing.T) {
	const cores = 8
	m := New(smallConfig(cores))
	type ev struct {
		time uint64
		core int
	}
	var log []ev
	addrs := make([]mem.Addr, cores)
	for i := range addrs {
		addrs[i] = m.Alloc.AllocLines(1)
	}
	bodies := make([]func(*Core), cores)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *Core) {
			c.SpinWait(uint64(tid*7), WaitBackoff) // desynchronize
			for k := 0; k < 20; k++ {
				// A zero-length wait is a pure synchronization point; the
				// engine only lets the minimum-time core proceed, so times
				// observed here must be globally nondecreasing.
				c.SpinWait(0, WaitBackoff)
				log = append(log, ev{c.Now(), c.ID()})
				c.Store(0x10, 1, addrs[tid], uint64(k))
				c.Compute(10 + tid)
			}
		}
	}
	m.Run(bodies)
	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if a.time > b.time {
			t.Fatalf("event %d out of order: core %d @%d then core %d @%d",
				i, a.core, a.time, b.core, b.time)
		}
		if a.time == b.time && a.core > b.core {
			t.Fatalf("tie at %d broken against core order: %d before %d",
				a.time, a.core, b.core)
		}
	}
}

// TestEngineSingleCoreNoHandoff: one core never blocks on the engine.
func TestEngineSingleCoreNoHandoff(t *testing.T) {
	m := New(smallConfig(1))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		for i := 0; i < 1000; i++ {
			c.Store(0x10, 1, a, uint64(i))
		}
	}})
	if got := m.Mem.Load(a); got != 999 {
		t.Fatalf("final = %d", got)
	}
}

// TestEngineEarlyFinishers: cores finishing at wildly different times
// must not wedge the remaining ones.
func TestEngineEarlyFinishers(t *testing.T) {
	const cores = 6
	m := New(smallConfig(cores))
	a := m.Alloc.AllocLines(1)
	done := make([]bool, cores)
	bodies := make([]func(*Core), cores)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *Core) {
			for k := 0; k < (tid+1)*10; k++ {
				c.NTLoad(a)
				c.Compute(5)
			}
			done[tid] = true
		}
	}
	m.Run(bodies)
	for i, d := range done {
		if !d {
			t.Fatalf("core %d never finished", i)
		}
	}
	s := m.Stats()
	if s.PerCore[0].FinalClock >= s.PerCore[cores-1].FinalClock {
		t.Fatal("shortest thread should finish earliest in virtual time")
	}
}

// TestEngineIdleCoreDoesNotGateOthers: a core that stops issuing events
// (finished) must not delay the others' progress at all.
func TestEngineIdleCoreDoesNotGateOthers(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	b := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){
		func(c *Core) { c.Store(0x1, 1, a, 1) }, // finishes immediately
		func(c *Core) {
			for i := 0; i < 500; i++ {
				c.Store(0x2, 2, b, uint64(i))
				c.Compute(20)
			}
		},
	})
	if m.Mem.Load(a) != 1 || m.Mem.Load(b) != 499 {
		t.Fatal("state wrong after early finisher")
	}
}

// TestFewerBodiesThanCores: Run with a subset of cores works and only
// those cores accumulate stats.
func TestFewerBodiesThanCores(t *testing.T) {
	m := New(smallConfig(8))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){
		func(c *Core) { c.Store(0x1, 1, a, 5) },
		func(c *Core) { c.NTLoad(a) },
	})
	s := m.Stats()
	for i := 2; i < 8; i++ {
		if s.PerCore[i].Uops != 0 {
			t.Fatalf("unused core %d executed work", i)
		}
	}
}

// TestTooManyBodiesPanics guards the thread/core contract.
func TestTooManyBodiesPanics(t *testing.T) {
	m := New(smallConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Run(make([]func(*Core), 3))
}

// TestRunEmptyBodies: zero threads is a no-op.
func TestRunEmptyBodies(t *testing.T) {
	m := New(smallConfig(2))
	m.Run(nil)
	if m.Stats().Makespan != 0 {
		t.Fatal("empty run advanced time")
	}
}

// scanMin is the selection rule the packed keys replaced, kept as their
// reference: an ascending scan over clocks and done flags for the
// smallest clock among the runnable cores other than skip (-1 = none
// skipped), ties to the smallest core ID, -1 when there is none.
func scanMin(time []uint64, done []bool, skip int) int {
	best := -1
	for i := range time {
		if i == skip || done[i] {
			continue
		}
		if best == -1 || time[i] < time[best] {
			best = i
		}
	}
	return best
}

// TestKeyMinimumMatchesScan: for random clocks, done sets and machine
// sizes up to the 32-core cap, the minimum over packed keys names the
// same core as the ascending scan — for the token's next holder (next)
// and for the frozen other-minimum (grant) — with clocks drawn from a
// handful of values so that ties, which must go to the smallest ID, are
// the common case, and with "every other core finished" included.
func TestKeyMinimumMatchesScan(t *testing.T) {
	decode := func(k uint64) (uint64, int) {
		if k == doneKey {
			return 0, -1
		}
		return keyTime(k), keyID(k)
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(32)
		spread := []int{1, 3, 1000, 1 << 40}[rng.Intn(4)]
		doneOneIn := 1 + rng.Intn(4) // 1 = every core finished
		time, done, keys := make([]uint64, n), make([]bool, n), make([]uint64, n)
		for i := range keys {
			time[i] = uint64(rng.Intn(spread))
			done[i] = rng.Intn(doneOneIn) == 0
			keys[i] = packKey(i, time[i])
			if done[i] {
				keys[i] = doneKey
			}
		}
		before := slices.Clone(keys)
		for skip := -1; skip < n; skip++ {
			var k uint64
			if skip == -1 {
				k = minKey(keys)
			} else {
				k = minKeyExcept(keys, skip)
			}
			gotT, got := decode(k)
			want := scanMin(time, done, skip)
			if got != want || (want != -1 && gotT != time[want]) {
				t.Fatalf("n=%d skip=%d clocks=%v done=%v: keys pick core %d @%d, scan picks %d",
					n, skip, time, done, got, gotT, want)
			}
		}
		if !slices.Equal(keys, before) {
			t.Fatalf("minKeyExcept left the keys changed: %v, were %v", keys, before)
		}
	}
}

// exitRehandoffs is how many body exits woke a participant other than
// the next holder, which then passed the token on: what is left of a
// run's coroutine switches after one per handoff, the run loop's first
// grant and one per body exit. It lies in [0, cores-1] — the last exit
// always wakes the run loop, which has nowhere to pass the token.
func exitRehandoffs(s EngineStats, cores int) uint64 {
	return s.Switches - s.Handoffs - 1 - uint64(cores)
}

// TestEngineStatsCountTheSchedule: the engine's counts are a function of
// (config, program) like every simulated number, and they add up: every
// handoff is exactly one coroutine switch, so Switches is Handoffs plus
// per-run and per-core terms (exitRehandoffs in range), at 16 cores as
// at 6. A single-core run hands nothing off and switches in and out once.
func TestEngineStatsCountTheSchedule(t *testing.T) {
	for _, cores := range []int{6, 16} {
		a, b := handoffStorm(cores, 300).Engine, handoffStorm(cores, 300).Engine
		if a != b {
			t.Fatalf("%d cores: same run, different engine counts:\n%+v\n%+v", cores, a, b)
		}
		if a.Syncs != uint64(cores*300) || a.Keeps+a.Handoffs != a.Syncs || a.Handoffs == 0 {
			t.Fatalf("%d cores: syncs/keeps/handoffs do not add up: %+v", cores, a)
		}
		if a.Switches < a.Handoffs+1+uint64(cores) || exitRehandoffs(a, cores) >= uint64(cores) {
			t.Fatalf("%d cores: %d switches for %d handoffs, want handoffs + %d..%d",
				cores, a.Switches, a.Handoffs, cores+1, 2*cores)
		}
	}
	if one := handoffStorm(1, 300).Engine; one.Handoffs != 0 || one.Keeps != 300 || one.Switches != 2 {
		t.Fatalf("single core: %+v", one)
	}
}

// TestEngineStatsCountShortcuts pins Shortcuts on a fixed one-core
// sequence: a Load's memo serves the next Load and NTLoad of its line,
// an NTLoad's only the next NTLoad, and a Store or TxBegin drops it. The
// simulated counters do not see the difference: every shortcut is an
// L1 hit.
func TestEngineStatsCountShortcuts(t *testing.T) {
	m := New(smallConfig(1))
	a := m.Alloc.AllocLines(1)
	b := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		c.Load(0x10, 1, a)
		c.Load(0x10, 1, a) // 1
		c.NTLoad(a)        // 2
		c.Load(0x10, 1, a) // 3: the NTLoad left the Load's memo standing
		c.NTLoad(b)
		c.Load(0x20, 2, b) // an NTLoad's memo does not serve a Load
		c.Load(0x20, 2, b) // 4
		c.Store(0x30, 3, b, 1)
		c.Load(0x20, 2, b)
		c.NTLoad(b) // 5
		c.TxBegin()
		c.Load(0x40, 4, b)
		c.Load(0x40, 4, b) // 6
		c.TxCommit()
		c.Load(0x20, 2, b) // 7: the transaction's memo outlives its commit
	}})
	s := m.Stats()
	if s.Engine.Shortcuts != 7 {
		t.Fatalf("shortcuts = %d, want 7 (engine %+v)", s.Engine.Shortcuts, s.Engine)
	}
	if s.L1Hits != 11 || s.Loads+s.NTLoads+s.Stores != 13 {
		t.Fatalf("L1 hits %d of %d accesses, want 11 of 13", s.L1Hits, s.Loads+s.NTLoads+s.Stores)
	}
}

// exitCores is the width of the exit-path shape: core i alternates a
// compute burst of its own length with a pure synchronisation point for
// its own number of rounds, so the bodies return one by one at scattered
// points of the schedule, each waking whichever participant is suspended
// in its coroutine. Whatever the interleaving, a core's final clock is
// its compute total, exitClock.
const exitCores = 16

func exitRounds(i int) int { return 6 + 5*i }
func exitBurst(i int) int  { return 4 * (1 + i*7%5) }

func exitClock(i int) uint64 {
	return uint64(exitRounds(i)) * ((uint64(exitBurst(i)) + IssueWidth - 1) / IssueWidth)
}

func exitBodies() []func(*Core) {
	bodies := make([]func(*Core), exitCores)
	for i := range bodies {
		bodies[i] = func(c *Core) {
			for k := 0; k < exitRounds(i); k++ {
				c.Compute(exitBurst(i))
				c.SpinWait(0, WaitBackoff)
			}
		}
	}
	return bodies
}

// randomSched is the "random" strategy: a uniform pick among the
// candidates, here over an unbounded window.
type randomSched struct{ rng *rand.Rand }

func (r randomSched) Pick(runnable []int, _ []uint64) int { return r.rng.Intn(len(runnable)) }
func (randomSched) Window() uint64                        { return 0 }

// TestEngineExitWakesNonGrantee drives the rendezvous's exit path. A
// returning body wakes whoever is suspended in its coroutine, on either
// side — usually a core that entered that coroutine from its own
// goroutine, which iter.Pull allows because it forbids only simultaneous
// calls — and that participant must retire the core and, when next()
// picks someone else, hand the token on. With no scheduler and under a random one the run must take
// that re-handoff and finish every core at its compute total; with no
// scheduler it must also equal the empty-replay spelling (minTimeSched,
// the rule an exhausted replay applies).
func TestEngineExitWakesNonGrantee(t *testing.T) {
	cfg := smallConfig(exitCores)
	run := func(sched Scheduler) Stats {
		m := New(cfg)
		m.SetScheduler(sched)
		if err := m.RunChecked(exitBodies()); err != nil {
			t.Fatal(err)
		}
		s := m.Stats()
		if r := exitRehandoffs(s.Engine, exitCores); r == 0 || r >= exitCores {
			t.Fatalf("sched %T: %d exits handed the token on (engine %+v), want 1..%d",
				sched, r, s.Engine, exitCores-1)
		}
		for i, cs := range s.PerCore {
			if want := exitClock(i); cs.FinalClock != want {
				t.Fatalf("sched %T: core %d finished at %d, want %d", sched, i, cs.FinalClock, want)
			}
		}
		s.Engine = EngineStats{}
		return s
	}
	plain := run(nil)
	if replay := run(minTimeSched{}); !reflect.DeepEqual(plain, replay) {
		t.Fatalf("default order and its empty-replay spelling diverge:\n%+v\n%+v", plain, replay)
	}
	run(randomSched{rand.New(rand.NewSource(5))})
}

// TestBodyGoexitEndsRun: a body that calls runtime.Goexit (t.FailNow in
// a test) unwinds every participant its exit wakes, so the Goexit reaches
// the goroutine that called Run instead of wedging the run.
func TestBodyGoexitEndsRun(t *testing.T) {
	bodies := exitBodies()
	rounds := bodies[5]
	bodies[5] = func(c *Core) {
		rounds(c)
		runtime.Goexit()
	}
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		New(smallConfig(exitCores)).Run(bodies)
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned after a body called runtime.Goexit")
	}
}
