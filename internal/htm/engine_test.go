package htm

import (
	"math/rand"
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

// TestEngineStatsCountTheSchedule: the engine's counts are a function of
// (config, program) like every simulated number, they add up, and a
// single-core run reports no handoffs.
func TestEngineStatsCountTheSchedule(t *testing.T) {
	storm := func(cores int) EngineStats {
		return handoffStorm(cores, 300).Engine
	}
	a, b := storm(6), storm(6)
	if a != b {
		t.Fatalf("same run, different engine counts:\n%+v\n%+v", a, b)
	}
	if a.Syncs != 6*300 || a.Keeps+a.Handoffs != a.Syncs || a.Handoffs == 0 {
		t.Fatalf("syncs/keeps/handoffs do not add up: %+v", a)
	}
	// Every switch into a core is answered by that core parking or
	// finishing, and a handoff takes at least one switch.
	if a.Resumes != a.Parks+6 || a.Resumes+a.Parks < a.Handoffs || a.MaxChain == 0 || a.MaxChain > 6 {
		t.Fatalf("switch counts inconsistent: %+v", a)
	}
	if one := storm(1); one.Handoffs != 0 || one.Keeps != 300 || one.Resumes != 1 || one.Parks != 0 {
		t.Fatalf("single core: %+v", one)
	}
}
