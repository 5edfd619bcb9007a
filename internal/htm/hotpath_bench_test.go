package htm

// Benchmarks and allocation assertions for the simulator's hot paths:
// the engine token handoff and keep test, the transactional access/commit
// path, the L1 model, and stats folding.
//
//	go test ./internal/htm -bench Hot -benchmem
//
// pairs each optimized path with its cost; TestHotPathSteadyStateAllocs
// turns "no per-event allocation" from a hope into a regression test.

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// handoffStorm runs a fixed contended simulation: cores alternate NT
// loads on a shared line (every event loses the virtual-time race and
// hands the token off) with short compute. Returns the run's statistics;
// NTLoads is its total of memory events.
func handoffStorm(cores, eventsPerCore int) Stats {
	m := New(smallConfig(cores))
	shared := m.Alloc.AllocLines(1)
	bodies := make([]func(*Core), cores)
	for i := range bodies {
		bodies[i] = func(c *Core) {
			for k := 0; k < eventsPerCore; k++ {
				c.NTLoad(shared)
			}
		}
	}
	m.Run(bodies)
	return m.Stats()
}

// keepTokenStorm runs events that almost always keep the token: one core
// issues every memory event while a peer has long since finished, so the
// engine's O(1) keep-token comparison is the entire handoff cost.
func keepTokenStorm(events int) uint64 {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	b := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){
		func(c *Core) {
			for k := 0; k < events; k++ {
				c.NTLoad(a)
			}
		},
		func(c *Core) { c.NTStore(b, 1) },
	})
	return m.Stats().NTLoads
}

// txStorm runs contended transactional increments: the TxBegin / record /
// conflict-abort / commit paths all stay hot. obs, if non-nil, is
// installed as the machine's observer.
func txStorm(cores, txPerCore int, obs TxObserver) Stats {
	m := New(smallConfig(cores))
	m.SetObserver(obs)
	shared := m.Alloc.AllocLines(1)
	bodies := make([]func(*Core), cores)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *Core) {
			for k := 0; k < txPerCore; k++ {
				c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
					v := c.Load(0x100+uint64(tid), 1, shared)
					c.Store(0x110+uint64(tid), 2, shared, v+1)
				})
			}
		}
	}
	m.Run(bodies)
	return m.Stats()
}

// BenchmarkHotEngineHandoff prices a handoff at 4 cores and at the
// paper's 16, from the engine's own counts: ns/handoff is the whole
// storm's time over its handoffs (all but a few of its events are one),
// and switches/handoff is what the schedule, not the code, decides.
func BenchmarkHotEngineHandoff(b *testing.B) {
	for _, cores := range []int{4, 16} {
		b.Run(fmt.Sprintf("c%d", cores), func(b *testing.B) {
			var events uint64
			var eng EngineStats
			for i := 0; i < b.N; i++ {
				s := handoffStorm(cores, 8000/cores)
				events += s.NTLoads
				eng.Handoffs += s.Engine.Handoffs
				eng.Resumes += s.Engine.Resumes
				eng.Parks += s.Engine.Parks
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(eng.Handoffs), "ns/handoff")
			b.ReportMetric(float64(eng.Resumes+eng.Parks)/float64(eng.Handoffs), "switches/handoff")
		})
	}
}

func BenchmarkHotEngineKeepToken(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		events += keepTokenStorm(8000)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkHotTxContended(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := txStorm(4, 500, nil)
		if s.Commits != 2000 {
			b.Fatalf("commits = %d", s.Commits)
		}
	}
}

func BenchmarkHotL1Cache(b *testing.B) {
	c := newL1(1024, 8)
	notPinned := func(mem.Addr) bool { return false }
	for i := 0; i < b.N; i++ {
		line := mem.Addr((i % 4096) * 64)
		if !c.hit(line) {
			c.insert(line, notPinned)
		}
	}
}

func BenchmarkHotStatsAdd(b *testing.B) {
	var agg Stats
	var cs CoreStats
	cs.Loads, cs.Stores, cs.Commits, cs.FinalClock = 10, 5, 2, 12345
	for i := 0; i < b.N; i++ {
		agg.add(&cs)
	}
	if agg.Makespan != 12345 {
		b.Fatal("unexpected makespan")
	}
}

// TestHotPathSteadyStateAllocs asserts the simulator allocates nothing
// per memory event in steady state. Comparing two run lengths cancels the
// fixed setup cost (machine, caches, goroutines): the delta is what the
// extra events allocate, and the budget allows under 2 allocations per
// hundred events (map growth amortization, nothing else).
func TestHotPathSteadyStateAllocs(t *testing.T) {
	measure := func(eventsPerCore int) float64 {
		return testing.AllocsPerRun(5, func() {
			handoffStorm(4, eventsPerCore)
		})
	}
	short, long := measure(500), measure(4000)
	// The cooperative engine's target is exactly zero steady-state
	// allocations: once the flat tables reach size, adding 14,000 more
	// events (handoffs included) must not allocate a single object.
	if long != short {
		t.Fatalf("steady-state allocations: %.0f extra over %d extra events (short=%.0f long=%.0f), want 0",
			long-short, 4*(4000-500), short, long)
	}

	measureTx := func(txPerCore int) float64 {
		return testing.AllocsPerRun(5, func() {
			txStorm(2, txPerCore, nil)
		})
	}
	shortTx, longTx := measureTx(200), measureTx(1600)
	// A committed transaction re-walks its write set and clears its flat
	// tables, and an aborted one unwinds via the pre-boxed panic payload;
	// neither may allocate in steady state.
	if longTx != shortTx {
		t.Fatalf("steady-state allocations: %.0f extra over %d extra transactions (short=%.0f long=%.0f), want 0",
			longTx-shortTx, 2*(1600-200), shortTx, longTx)
	}

	// L1 storage belongs to cores that run: a one-thread cell on the
	// sixteen-core machine builds one cache's line array, not sixteen.
	m := New(DefaultConfig())
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) { c.NTLoad(a) }})
	for i, c := range m.cores {
		if got, want := c.l1.lines != nil, i == 0; got != want {
			t.Fatalf("core %d of a 1-thread run: L1 storage allocated = %v, want %v", i, got, want)
		}
	}
}

// nopObserver receives the commit stream and drops it.
type nopObserver struct{}

func (nopObserver) OnCommit(int, bool, any, []mem.Word, []mem.Word) {}
func (nopObserver) OnStore(int, mem.Addr, uint64)                   {}

// TestObservedCommitPathAllocs extends the zero-steady-state guarantee to
// observed machines: logging a section's reads and handing its read and
// write sets to the observer reuses the core's tables, so 2,800 more
// observed transactions (aborted attempts and irrevocable fallbacks
// included) allocate nothing.
func TestObservedCommitPathAllocs(t *testing.T) {
	measure := func(txPerCore int) float64 {
		return testing.AllocsPerRun(5, func() {
			txStorm(2, txPerCore, nopObserver{})
		})
	}
	short, long := measure(200), measure(1600)
	if long != short {
		t.Fatalf("observed steady-state allocations: %.0f extra over %d extra transactions (short=%.0f long=%.0f), want 0",
			long-short, 2*(1600-200), short, long)
	}
}

// annotateStorm is handoffStorm with an observability annotation per
// event — the shape the stagger lock paths produce. With no trace sink
// enabled the annotations must be free.
func annotateStorm(cores, eventsPerCore int) {
	m := New(smallConfig(cores))
	shared := m.Alloc.AllocLines(1)
	bodies := make([]func(*Core), cores)
	for i := range bodies {
		bodies[i] = func(c *Core) {
			for k := 0; k < eventsPerCore; k++ {
				c.NTLoad(shared)
				c.Annotate(TraceLockAcquire, shared)
				c.Annotate(TraceLockRelease, shared)
			}
		}
	}
	m.Run(bodies)
}

// TestAnnotateDisabledAllocs asserts the observability hooks keep the
// hot path's zero-allocation guarantee when tracing is off: runtimes
// call Core.Annotate unconditionally, so with no sink it must cost a
// cached-boolean test and nothing else.
func TestAnnotateDisabledAllocs(t *testing.T) {
	measure := func(eventsPerCore int) float64 {
		return testing.AllocsPerRun(5, func() {
			annotateStorm(4, eventsPerCore)
		})
	}
	short, long := measure(500), measure(4000)
	perEvent := (long - short) / float64(4*(4000-500))
	if perEvent > 0.02 {
		t.Fatalf("annotated steady-state allocations: %.4f per event (short=%.0f long=%.0f), want <= 0.02",
			perEvent, short, long)
	}
}
