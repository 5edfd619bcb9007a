package stagger

import (
	"testing"

	"repro/internal/anchor"
	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// counterProgram builds a module with one atomic block that reads and
// writes a single shared word: load p->val, store p->val.
func counterProgram(t testing.TB) (*prog.Module, *prog.AtomicBlock, *prog.Site, *prog.Site) {
	t.Helper()
	m := prog.NewModule("counter")
	f := m.NewFunc("incr", "p")
	sLoad := f.Entry().Load(f.Param(0), "val")
	sStore := f.Entry().Store(f.Param(0), "val")
	ab := m.Atomic("incr", f)
	m.MustFinalize()
	return m, ab, sLoad, sStore
}

// arrayProgram builds an atomic block whose accesses hit varying slots of
// a shared array through a single static site (coarse-pattern source).
func arrayProgram(t testing.TB) (*prog.Module, *prog.AtomicBlock, *prog.Site, *prog.Site) {
	t.Helper()
	m := prog.NewModule("arr")
	f := m.NewFunc("update", "arr")
	sLoad := f.Entry().Load(f.Param(0), "slot")
	sStore := f.Entry().Store(f.Param(0), "slot")
	ab := m.Atomic("update", f)
	m.MustFinalize()
	return m, ab, sLoad, sStore
}

func newSim(t testing.TB, mode Mode, threads int, m *prog.Module) (*htm.Machine, *Runtime) {
	t.Helper()
	cfg := htm.DefaultConfig()
	cfg.Cores = threads
	cfg.HardwareCPC = mode != ModeStaggeredSW
	mach := htm.New(cfg)
	var comp *anchor.Compiled
	if m != nil {
		comp = anchor.Compile(m, anchor.DefaultOptions())
	}
	rt := New(mach, comp, DefaultConfig(mode))
	return mach, rt
}

func runCounter(t *testing.T, mode Mode, threads, incs int) (*htm.Machine, *Runtime, mem.Addr, *prog.AtomicBlock) {
	t.Helper()
	m, ab, sLoad, sStore := counterProgram(t)
	mach, rt := newSim(t, mode, threads, m)
	addr := mach.Alloc.AllocLines(1)
	bodies := make([]func(*htm.Core), threads)
	for i := range bodies {
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			for k := 0; k < incs; k++ {
				th.Atomic(ab, func(tc backend.Ctx) {
					v := tc.Load(sLoad, addr)
					tc.Compute(300)
					tc.Store(sStore, addr, v+1)
				})
			}
		}
	}
	mach.Run(bodies)
	if got := mach.Mem.Load(addr); got != uint64(threads*incs) {
		t.Fatalf("%v: counter = %d, want %d", mode, got, threads*incs)
	}
	return mach, rt, addr, ab
}

func TestBaselineHTMCorrect(t *testing.T) {
	runCounter(t, ModeHTM, 4, 40)
}

func TestStaggeredHWCorrect(t *testing.T) {
	runCounter(t, ModeStaggeredHW, 4, 40)
}

func TestStaggeredSWCorrect(t *testing.T) {
	runCounter(t, ModeStaggeredSW, 4, 40)
}

func TestAddrOnlyCorrect(t *testing.T) {
	runCounter(t, ModeAddrOnly, 4, 40)
}

// TestPreciseModeActivates: a stable conflicting address plus stable PC
// must drive the policy into precise mode with the right anchor and line.
func TestPreciseModeActivates(t *testing.T) {
	mach, rt, addr, ab := runCounter(t, ModeStaggeredHW, 8, 50)
	_ = mach
	if rt.Metrics.ActPrecise == 0 {
		t.Fatalf("precise activations = 0; metrics: %+v", rt.Metrics)
	}
	// Armed ALPs must have fired: locks were taken on the hot line.
	// (Final ABContext state may be disarmed again — the policy
	// deliberately probes for restored concurrency once quiet.)
	if rt.Metrics.LocksAcquired == 0 {
		t.Fatal("precise ALPs armed but no advisory lock ever acquired")
	}
	_, _ = addr, ab
}

// TestStaggeredReducesAborts is the core claim: on the high-contention
// counter, staggered transactions must suffer fewer aborts per commit
// than the plain HTM baseline.
func TestStaggeredReducesAborts(t *testing.T) {
	base, _, _, _ := runCounter(t, ModeHTM, 8, 50)
	stag, rt, _, _ := runCounter(t, ModeStaggeredHW, 8, 50)
	baseStats, stagStats := base.Stats(), stag.Stats()
	b := baseStats.AbortsPerCommit()
	s := stagStats.AbortsPerCommit()
	if s >= b {
		t.Fatalf("aborts/commit: staggered %.2f !< baseline %.2f (locks=%d)",
			s, b, rt.Metrics.LocksAcquired)
	}
	if rt.Metrics.LocksAcquired == 0 {
		t.Fatal("staggered run never acquired an advisory lock")
	}
}

// TestAccuracyPerfectWithoutAliasing: the tiny program has 2 sites, so
// 12-bit PC truncation cannot alias them and every conflict abort must be
// traced to the true anchor.
func TestAccuracyPerfectWithoutAliasing(t *testing.T) {
	_, rt, _, _ := runCounter(t, ModeStaggeredHW, 8, 50)
	if rt.Metrics.AccTotal == 0 {
		t.Skip("no conflict aborts")
	}
	if acc := rt.Metrics.Accuracy(); acc != 1.0 {
		t.Fatalf("accuracy = %.3f, want 1.0 (hits=%d total=%d)",
			acc, rt.Metrics.AccHits, rt.Metrics.AccTotal)
	}
}

// TestSWModeResolvesAnchors: without hardware CPC the software map must
// still identify anchors for recurring conflicts.
func TestSWModeResolvesAnchors(t *testing.T) {
	_, rt, _, _ := runCounter(t, ModeStaggeredSW, 8, 50)
	if rt.Metrics.ActPrecise == 0 {
		t.Fatalf("SW mode never reached precise mode: %+v", rt.Metrics)
	}
}

// TestCoarseModeOnVaryingAddresses: conflicts through one PC across many
// lines must select coarse-grain mode (wild-card address), not precise.
func TestCoarseModeOnVaryingAddresses(t *testing.T) {
	m, ab, sLoad, sStore := arrayProgram(t)
	const threads = 8
	mach, rt := newSim(t, ModeStaggeredHW, threads, m)
	// 4 slots on distinct lines, visited round-robin with per-thread
	// offsets so conflicting addresses keep changing.
	slots := make([]mem.Addr, 4)
	for i := range slots {
		slots[i] = mach.Alloc.AllocLines(1)
	}
	bodies := make([]func(*htm.Core), threads)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			for k := 0; k < 60; k++ {
				a := slots[(k+tid)%len(slots)]
				th.Atomic(ab, func(tc backend.Ctx) {
					v := tc.Load(sLoad, a)
					tc.Compute(300)
					tc.Store(sStore, a, v+1)
				})
			}
		}
	}
	mach.Run(bodies)
	var sum uint64
	for _, s := range slots {
		sum += mach.Mem.Load(s)
	}
	if sum != threads*60 {
		t.Fatalf("total = %d, want %d", sum, threads*60)
	}
	if rt.Metrics.ActCoarse == 0 {
		t.Fatalf("coarse activations = 0; metrics %+v", rt.Metrics)
	}
}

// TestAdvisoryLockDoesNotAbortHolder: waiting on and releasing advisory
// locks must never abort the transactions involved (NT accesses only).
func TestAdvisoryLockDoesNotAbortHolder(t *testing.T) {
	m, ab, sLoad, sStore := counterProgram(t)
	mach, rt := newSim(t, ModeStaggeredHW, 2, m)
	addr := mach.Alloc.AllocLines(1)
	// Pre-arm both threads' contexts in precise mode (with enough
	// recorded history and contention pressure that the adaptive policy
	// keeps them armed for the short run).
	for tid := 0; tid < 2; tid++ {
		th := rt.Thread(tid)
		abc := th.ctx(ab)
		abc.activeAnchor = sLoad.ID
		abc.blockAddr = mem.LineOf(addr)
		abc.confAbortsW = 64
		for i := 0; i < 6; i++ {
			abc.appendHistory(rt.cfg.HistLen,
				abortRecord{anchorSite: sLoad.ID, addr: mem.LineOf(addr)})
		}
	}
	bodies := make([]func(*htm.Core), 2)
	for i := range bodies {
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			for k := 0; k < 20; k++ {
				th.Atomic(ab, func(tc backend.Ctx) {
					v := tc.Load(sLoad, addr)
					tc.Compute(2000)
					tc.Store(sStore, addr, v+1)
				})
			}
		}
	}
	mach.Run(bodies)
	if got := mach.Mem.Load(addr); got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
	s := mach.Stats()
	if rt.Metrics.LocksAcquired == 0 {
		t.Fatal("no advisory locks acquired despite pre-armed ALPs")
	}
	// With threads serializing on the advisory lock most of the time
	// (the test-and-set lock is unfair, so phases of monopolization and
	// adaptive disarm leave a residue), conflicts must stay well below
	// one per commit.
	if s.Aborts[htm.AbortConflict] >= s.Commits/2 {
		t.Fatalf("conflict aborts = %d of %d commits with advisory serialization",
			s.Aborts[htm.AbortConflict], s.Commits)
	}
	if s.WaitCycles[htm.WaitLock] == 0 {
		t.Fatal("no lock wait recorded; locks never contended")
	}
}

// runArmedCounter runs the two-thread counter under cfg with both
// threads' ALPs pre-armed in precise mode on the counter's line, so
// every transaction goes for the same advisory lock from its first
// attempt. uops is the compute between the load and the store; faults,
// when non-nil, is installed on the machine before the runtime is built.
func runArmedCounter(t *testing.T, cfg Config, faults htm.FaultInjector, incs, uops int) (*htm.Machine, *Runtime, mem.Addr) {
	t.Helper()
	m, ab, sLoad, sStore := counterProgram(t)
	cfgM := htm.DefaultConfig()
	cfgM.Cores = 2
	mach := htm.New(cfgM)
	mach.SetFaultInjector(faults)
	rt := New(mach, anchor.Compile(m, anchor.DefaultOptions()), cfg)
	addr := mach.Alloc.AllocLines(1)
	for tid := 0; tid < 2; tid++ {
		abc := rt.Thread(tid).ctx(ab)
		abc.activeAnchor = sLoad.ID
		abc.blockAddr = mem.LineOf(addr)
	}
	bodies := make([]func(*htm.Core), 2)
	for i := range bodies {
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			for k := 0; k < incs; k++ {
				th.Atomic(ab, func(tc backend.Ctx) {
					v := tc.Load(sLoad, addr)
					tc.Compute(uops)
					tc.Store(sStore, addr, v+1)
				})
			}
		}
	}
	mach.Run(bodies)
	if got := mach.Mem.Load(addr); got != uint64(2*incs) {
		t.Fatalf("counter = %d, want %d (a lock not held broke atomicity?)", got, 2*incs)
	}
	return mach, rt, addr
}

// TestLockTimeout: a very small timeout must let waiters proceed without
// the lock rather than blocking forever.
func TestLockTimeout(t *testing.T) {
	cfg := DefaultConfig(ModeStaggeredHW)
	cfg.LockTimeout = 100 // tiny
	_, rt, _ := runArmedCounter(t, cfg, nil, 10, 5000)
	if rt.Metrics.LockTimeouts == 0 {
		t.Fatal("expected lock timeouts with a 100-cycle deadline")
	}
}

// dropFirst loses exactly one lock release (the first by core 0),
// simulating a holder that died while holding an advisory lock. It
// injects no machine-level fault.
type dropFirst struct{ dropped bool }

func (*dropFirst) SpuriousAbort(int) (htm.AbortReason, bool) { return htm.AbortNone, false }
func (*dropFirst) NTDelay(int) uint64                        { return 0 }
func (*dropFirst) StallJitter(int) uint64                    { return 0 }

func (d *dropFirst) DropLockRelease(core int) bool {
	if !d.dropped && core == 0 {
		d.dropped = true
		return true
	}
	return false
}

// TestLostReleaseCostsTimeouts is the paper's safety argument (Section
// 2) on its own runtime: an advisory lock orphaned by a dead holder is
// never reclaimed, so every later transaction armed on it waits out
// LockTimeout and proceeds without it — slower, but every increment
// lands and the run finishes.
func TestLostReleaseCostsTimeouts(t *testing.T) {
	cfg := DefaultConfig(ModeStaggeredHW)
	cfg.LockTimeout = 3000
	mach, rt, addr := runArmedCounter(t, cfg, &dropFirst{}, 25, 200)
	if rt.Metrics.LockTimeouts == 0 {
		t.Fatal("nobody timed out behind the dead holder")
	}
	if owner := mach.Mem.Load(rt.lockFor(addr)); owner != 1 {
		t.Fatalf("orphaned lock word = %d, want core 0's stamp 1 (nothing reclaims it)", owner)
	}
}

// TestLivelockEscape: the runtime's escape from livelock is the
// irrevocable fallback. Under total speculative poisoning (every fault
// class at rate 1, so every transactional event spuriously aborts) each
// instance burns exactly its retry budget, commits under the global
// lock, and the run still completes every operation.
func TestLivelockEscape(t *testing.T) {
	m, ab, sLoad, sStore := counterProgram(t)
	cfgM := htm.DefaultConfig()
	cfgM.Cores = 2
	mach := htm.New(cfgM)
	mach.SetFaultInjector(chaos.NewInjector(1, 1, cfgM.Cores))
	comp := anchor.Compile(m, anchor.DefaultOptions())
	cfg := DefaultConfig(ModeStaggeredHW)
	cfg.MaxRetries = 3
	rt := New(mach, comp, cfg)
	addr := mach.Alloc.AllocLines(1)
	const incs = 15
	bodies := make([]func(*htm.Core), 2)
	for i := range bodies {
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			for k := 0; k < incs; k++ {
				th.Atomic(ab, func(tc backend.Ctx) {
					v := tc.Load(sLoad, addr)
					tc.Store(sStore, addr, v+1)
				})
			}
		}
	}
	mach.Run(bodies)
	if got := mach.Mem.Load(addr); got != 2*incs {
		t.Fatalf("counter = %d, want %d", got, 2*incs)
	}
	s := mach.Stats()
	if s.IrrevocableCommits != s.Commits {
		t.Fatalf("%d of %d commits irrevocable; expected all under total poisoning",
			s.IrrevocableCommits, s.Commits)
	}
	if want := uint64(2 * incs * cfg.MaxRetries); s.TotalAborts() != want {
		t.Fatalf("aborts = %d, want the full retry budget of every instance, %d", s.TotalAborts(), want)
	}
}

// TestALPOverheadCharged: instrumented modes must execute ALP visits and
// charge µ-ops for them; the baseline must not.
func TestALPOverheadCharged(t *testing.T) {
	_, rtBase, _, _ := runCounter(t, ModeHTM, 2, 20)
	_, rtStag, _, _ := runCounter(t, ModeStaggeredHW, 2, 20)
	if rtBase.Metrics.ALPVisits != 0 {
		t.Fatal("baseline executed ALPs")
	}
	if rtStag.Metrics.ALPVisits == 0 {
		t.Fatal("staggered mode executed no ALPs")
	}
}

// TestTrainingModeFirst: before thresholds are crossed the policy stays
// in training (no armed anchor).
func TestTrainingModeFirst(t *testing.T) {
	m, ab, sLoad, _ := counterProgram(t)
	mach, rt := newSim(t, ModeStaggeredHW, 1, m)
	_ = mach
	th := rt.Thread(0)
	abc := th.ctx(ab)
	info := htm.AbortInfo{
		Reason:   htm.AbortConflict,
		ConfAddr: 0x10000,
		ConfPC:   sLoad.PC & 0xFFF,
		HasPC:    true,
		TrueSite: sLoad.ID,
	}
	th.abc = abc
	abc.confAbortsW = 8 // contention gate: frequent conflicts observed
	th.activate(info, 0)
	if abc.activeAnchor != 0 {
		t.Fatal("policy armed an ALP on the first abort (no history yet)")
	}
	if rt.Metrics.ActTraining != 1 {
		t.Fatalf("training activations = %d, want 1", rt.Metrics.ActTraining)
	}
	// After enough recurrences, precise mode kicks in.
	for i := 0; i < 4; i++ {
		th.activate(info, 0)
	}
	if abc.activeAnchor != sLoad.ID || abc.blockAddr != mem.Addr(0x10000) {
		t.Fatalf("expected precise mode on anchor %d, got anchor=%d addr=%#x",
			sLoad.ID, abc.activeAnchor, abc.blockAddr)
	}
}

// TestLockingPromotion drives the policy with a recurring PC but varying
// addresses until it promotes to the parent anchor.
func TestLockingPromotion(t *testing.T) {
	// Build a parent/child structure: root loads q->head (anchor A), then
	// head->next (anchor B, parent A by DS edge).
	m := prog.NewModule("promo")
	f := m.NewFunc("op", "q")
	head, sHead := f.Entry().LoadPtr("head", f.Param(0), "head")
	sNode := f.Entry().Load(head, "v")
	ab := m.Atomic("op", f)
	m.MustFinalize()

	cfgM := htm.DefaultConfig()
	cfgM.Cores = 1
	mach := htm.New(cfgM)
	comp := anchor.Compile(m, anchor.DefaultOptions())
	cfg := DefaultConfig(ModeStaggeredHW)
	cfg.PromThr = 2
	rt := New(mach, comp, cfg)
	th := rt.Thread(0)
	abc := th.ctx(ab)
	th.abc = abc

	// Conflicts always resolve to anchor sNode but addresses vary, and
	// retry chains run deep (the wasted-work signal coarse mode needs).
	abc.confAbortsW = 16
	abc.deepW = 8
	for i := 0; i < 20; i++ {
		info := htm.AbortInfo{
			Reason:   htm.AbortConflict,
			ConfAddr: mem.Addr(0x10000 + i*64),
			ConfPC:   sNode.PC & 0xFFF,
			HasPC:    true,
			TrueSite: sNode.ID,
		}
		th.activate(info, cfg.PromThr) // at the promotion threshold
	}
	if abc.activeAnchor != sHead.ID {
		t.Fatalf("expected promotion to parent anchor %d, got %d (coarse=%d promote=%d)",
			sHead.ID, abc.activeAnchor, rt.Metrics.ActCoarse, rt.Metrics.ActPromote)
	}
	if abc.blockAddr != 0 {
		t.Fatal("promoted ALP must be coarse (wild-card address)")
	}
	if rt.Metrics.ActPromote == 0 {
		t.Fatal("no promotion recorded")
	}
}

// TestDeterministicRuns: identical staggered runs produce identical
// statistics.
func TestDeterministicRuns(t *testing.T) {
	run := func() (htm.Stats, Metrics) {
		mach, rt, _, _ := runCounter(t, ModeStaggeredHW, 6, 30)
		return mach.Stats(), rt.Metrics
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1.Makespan != s2.Makespan || s1.Commits != s2.Commits ||
		s1.TotalAborts() != s2.TotalAborts() || m1 != m2 {
		t.Fatalf("nondeterministic: %+v %+v vs %+v %+v", s1.CoreStats, m1, s2.CoreStats, m2)
	}
}

// TestAddrOnlyArmsAtBlockStart: after training, AddrOnly acquires the
// lock at transaction begin (no anchors involved).
func TestAddrOnlyArmsAtBlockStart(t *testing.T) {
	_, rt, _, _ := runCounter(t, ModeAddrOnly, 8, 50)
	if rt.Metrics.LocksAcquired == 0 {
		t.Fatalf("AddrOnly never locked: %+v", rt.Metrics)
	}
	if rt.Metrics.ALPVisits != 0 {
		t.Fatal("AddrOnly must not execute per-site ALPs")
	}
}

// TestThreadBindsEachInstanceToItsBlock: one Thread serves every
// instance its core runs, so each instance must be bound to its own
// block's context and metrics, whatever block ran before it on the
// thread and in whatever order the blocks first appear.
func TestThreadBindsEachInstanceToItsBlock(t *testing.T) {
	m := prog.NewModule("two")
	f := m.NewFunc("op", "p")
	ld := f.Entry().Load(f.Param(0), "v")
	st := f.Entry().Store(f.Param(0), "v")
	abA, abB := m.Atomic("a", f), m.Atomic("b", f)
	m.MustFinalize()
	mach, rt := newSim(t, ModeStaggeredHW, 1, m)
	addr := mach.Alloc.AllocLines(1)
	body := func(tc backend.Ctx) { tc.Store(st, addr, tc.Load(ld, addr)+1) }
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(c.ID())
		for _, ab := range []*prog.AtomicBlock{abB, abA, abA, abB, abA} {
			th.Atomic(ab, body)
		}
	}})
	for ab, want := range map[*prog.AtomicBlock]uint64{abA: 3, abB: 2} {
		if got := rt.PerAB()[ab.ID]; got == nil || got.Name != ab.Name || got.Commits != want {
			t.Errorf("block %s: metrics %+v, want %d commits", ab.Name, got, want)
		}
		if abc := rt.Thread(0).ctxs[ab.ID]; abc == nil || abc.ab != ab {
			t.Errorf("block %s: thread context %+v", ab.Name, abc)
		}
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModeHTM:         "HTM",
		ModeAddrOnly:    "AddrOnly",
		ModeStaggeredSW: "Staggered+SW",
		ModeStaggeredHW: "Staggered",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mach := htm.New(htm.DefaultConfig())
	bad := []func(*Config){
		func(c *Config) { c.HistLen = 0 },
		func(c *Config) { c.NumLocks = 3 },
		func(c *Config) { c.SWMapWords = 100 },
		func(c *Config) { c.MaxRetries = 0 },
	}
	for i, mut := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			cfg := DefaultConfig(ModeHTM)
			mut(&cfg)
			New(mach, nil, cfg)
		}()
	}
}
