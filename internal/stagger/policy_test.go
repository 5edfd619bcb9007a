package stagger

import (
	"testing"

	"repro/internal/anchor"
	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// chainProgram declares q -> head -> cell, giving the cell anchor a
// parent for promotion tests.
func chainProgram(t testing.TB) (*prog.Module, *prog.AtomicBlock, *prog.Site, *prog.Site) {
	t.Helper()
	m := prog.NewModule("chain")
	f := m.NewFunc("op", "q")
	head, sHead := f.Entry().LoadPtr("head", f.Param(0), "head")
	sCell := f.Entry().Load(head, "v")
	ab := m.Atomic("op", f)
	m.MustFinalize()
	return m, ab, sHead, sCell
}

// policyEnv builds a 1-core runtime plus a pre-gated ABContext so policy
// decisions can be driven directly.
func policyEnv(t testing.TB, m *prog.Module, ab *prog.AtomicBlock, cfg Config) (*ABContext, *Thread) {
	t.Helper()
	mcfg := htm.DefaultConfig()
	mcfg.Cores = 1
	mach := htm.New(mcfg)
	comp := anchor.Compile(m, anchor.DefaultOptions())
	rt := New(mach, comp, cfg)
	th := rt.Thread(0)
	abc := th.ctx(ab)
	abc.confAbortsW = 64 // pass decision (1)
	abc.deepW = 64       // pass the coarse-mode bar
	th.abc = abc
	return abc, th
}

func conflictAt(s *prog.Site, addr mem.Addr) htm.AbortInfo {
	return htm.AbortInfo{
		Reason:   htm.AbortConflict,
		ConfAddr: addr,
		ConfPC:   s.PC & 0xFFF,
		HasPC:    true,
		TrueSite: s.ID,
	}
}

// TestPolicyTransitionTable drives the four Figure-6 behaviours through
// crafted abort sequences.
func TestPolicyTransitionTable(t *testing.T) {
	m, ab, sHead, sCell := chainProgram(t)

	t.Run("precise_on_recurrent_pc_and_addr", func(t *testing.T) {
		abc, th := policyEnv(t, m, ab, DefaultConfig(ModeStaggeredHW))
		for i := 0; i < 5; i++ {
			th.activate(conflictAt(sCell, 0x40000), 0)
		}
		if abc.activeAnchor != sCell.ID || abc.blockAddr != 0x40000 {
			t.Fatalf("anchor=%d addr=%#x, want precise on cell", abc.activeAnchor, abc.blockAddr)
		}
	})

	t.Run("coarse_on_recurrent_pc_varying_addr", func(t *testing.T) {
		abc, th := policyEnv(t, m, ab, DefaultConfig(ModeStaggeredHW))
		for i := 0; i < 5; i++ {
			th.activate(conflictAt(sCell, mem.Addr(0x40000+i*128)), 0)
		}
		if abc.activeAnchor != sCell.ID || abc.blockAddr != 0 {
			t.Fatalf("anchor=%d addr=%#x, want coarse on cell", abc.activeAnchor, abc.blockAddr)
		}
	})

	t.Run("promotion_on_deep_retry", func(t *testing.T) {
		cfg := DefaultConfig(ModeStaggeredHW)
		abc, th := policyEnv(t, m, ab, cfg)
		for i := 0; i < 5; i++ {
			th.activate(conflictAt(sCell, mem.Addr(0x40000+i*128)), cfg.PromThr)
		}
		if abc.activeAnchor != sHead.ID {
			t.Fatalf("anchor=%d, want promoted parent %d", abc.activeAnchor, sHead.ID)
		}
	})

	t.Run("training_without_recurrence", func(t *testing.T) {
		// Four distinct anchors rotating through the 8-entry history:
		// each appears twice, never crossing PC_THR = 2.
		m4 := prog.NewModule("four")
		f := m4.NewFunc("op", "a", "b", "c", "d")
		sites := []*prog.Site{
			f.Entry().Load(f.Param(0), "x"),
			f.Entry().Load(f.Param(1), "x"),
			f.Entry().Load(f.Param(2), "x"),
			f.Entry().Load(f.Param(3), "x"),
		}
		ab4 := m4.Atomic("op", f)
		m4.MustFinalize()
		abc, th := policyEnv(t, m4, ab4, DefaultConfig(ModeStaggeredHW))
		for i := 0; i < 8; i++ {
			th.activate(conflictAt(sites[i%4], mem.Addr(0x40000+i*128)), 0)
		}
		if abc.activeAnchor != 0 {
			t.Fatalf("anchor=%d armed without a recurring pattern", abc.activeAnchor)
		}
	})

	t.Run("non_conflict_aborts_ignored", func(t *testing.T) {
		abc, th := policyEnv(t, m, ab, DefaultConfig(ModeStaggeredHW))
		for i := 0; i < 8; i++ {
			th.activate(htm.AbortInfo{Reason: htm.AbortOverflow}, 0)
		}
		if abc.activeAnchor != 0 || len(abc.history) != 0 {
			t.Fatal("overflow aborts fed the conflict policy")
		}
	})
}

// TestPolicyPioneerResolution: a conflicting PC on a non-anchor site must
// resolve to its pioneer anchor before arming.
func TestPolicyPioneerResolution(t *testing.T) {
	m := prog.NewModule("pio")
	f := m.NewFunc("op", "p")
	sFirst := f.Entry().Load(f.Param(0), "a")  // anchor
	sSecond := f.Entry().Load(f.Param(0), "b") // non-anchor, pioneer sFirst
	ab := m.Atomic("op", f)
	m.MustFinalize()
	abc, th := policyEnv(t, m, ab, DefaultConfig(ModeStaggeredHW))
	for i := 0; i < 5; i++ {
		th.activate(conflictAt(sSecond, 0x40000), 0)
	}
	if abc.activeAnchor != sFirst.ID {
		t.Fatalf("anchor=%d, want pioneer %d", abc.activeAnchor, sFirst.ID)
	}
}

// TestDecisionOneGateBlocksQuietBlocks: without windowed contention the
// policy must stay in training no matter how recurrent the pattern looks.
func TestDecisionOneGateBlocksQuietBlocks(t *testing.T) {
	m, ab, _, sCell := chainProgram(t)
	abc, th := policyEnv(t, m, ab, DefaultConfig(ModeStaggeredHW))
	abc.confAbortsW = 0
	abc.deepW = 0
	abc.commitsW = 60 // lots of quiet commits
	for i := 0; i < 8; i++ {
		th.activate(conflictAt(sCell, 0x40000), 0)
		abc.confAbortsW = 0 // keep the window quiet
	}
	if abc.activeAnchor != 0 {
		t.Fatal("policy armed below the contention gate")
	}
}

// TestRateDisarmOnCommit: an armed context disarms once the windowed
// contention rate collapses.
func TestRateDisarmOnCommit(t *testing.T) {
	m, ab, _, sCell := chainProgram(t)
	mcfg := htm.DefaultConfig()
	mcfg.Cores = 1
	mach := htm.New(mcfg)
	comp := anchor.Compile(m, anchor.DefaultOptions())
	rt := New(mach, comp, DefaultConfig(ModeStaggeredHW))
	th := rt.Thread(0)
	abc := th.ctx(ab)
	abc.activeAnchor = sCell.ID
	abc.blockAddr = 0x40000
	abc.confAbortsW = 0
	abc.commitsW = 50
	addr := mach.Alloc.AllocLines(1)
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th.Atomic(ab, func(tc backend.Ctx) {
			tc.Load(sCell, addr)
		})
	}})
	if abc.activeAnchor != 0 {
		t.Fatal("quiet context did not disarm at commit")
	}
}

// TestLockHashingDeterministicAndBounded: lockFor maps any address into
// the configured table and does so deterministically.
func TestLockHashingDeterministicAndBounded(t *testing.T) {
	mach := htm.New(htm.DefaultConfig())
	cfg := DefaultConfig(ModeHTM)
	cfg.NumLocks = 16
	rt := New(mach, nil, cfg)
	seen := map[mem.Addr]bool{}
	for i := 0; i < 4096; i++ {
		a := mem.Addr(0x100000 + i*8)
		l1 := rt.lockFor(a)
		l2 := rt.lockFor(a)
		if l1 != l2 {
			t.Fatal("lockFor nondeterministic")
		}
		if (l1-rt.locksBase)%mem.LineSize != 0 || l1 < rt.locksBase ||
			l1 >= rt.locksBase+mem.Addr(cfg.NumLocks*mem.LineSize) {
			t.Fatalf("lock %#x outside table", l1)
		}
		seen[l1] = true
	}
	if len(seen) != cfg.NumLocks {
		t.Errorf("only %d of %d locks ever selected", len(seen), cfg.NumLocks)
	}
	// Same line -> same lock regardless of offset within the line.
	if rt.lockFor(0x100001) != rt.lockFor(0x100039) {
		t.Error("same-line addresses map to different locks")
	}
}

// TestSWMapSlotting: software anchor-map slots stay inside the thread's
// region and are line-deterministic.
func TestSWMapSlotting(t *testing.T) {
	mcfg := htm.DefaultConfig()
	mcfg.Cores = 2
	mcfg.HardwareCPC = false
	mach := htm.New(mcfg)
	m, ab, _, _ := chainProgram(t)
	comp := anchor.Compile(m, anchor.DefaultOptions())
	_ = ab
	cfg := DefaultConfig(ModeStaggeredSW)
	rt := New(mach, comp, cfg)
	th0, th1 := rt.Thread(0), rt.Thread(1)
	for i := 0; i < 1000; i++ {
		a := mem.Addr(0x200000 + i*64)
		s0 := th0.swSlot(a)
		if s0 < rt.swBase[0] || s0 >= rt.swBase[0]+mem.Addr(cfg.SWMapWords*8) {
			t.Fatalf("slot %#x outside thread 0 region", s0)
		}
		if th0.swSlot(a) != s0 {
			t.Fatal("slot nondeterministic")
		}
		// Distinct threads use distinct regions.
		if th1.swSlot(a) == s0 {
			t.Fatal("threads share a software-map slot")
		}
	}
}

// TestOneLockPerTransaction: the paper acquires exactly one advisory
// lock per transaction. A coarse ALP that meets several distinct
// addresses locks the first and is then disarmed for the attempt, and
// the lock is free again after commit.
func TestOneLockPerTransaction(t *testing.T) {
	m := prog.NewModule("multi")
	f := m.NewFunc("op", "p")
	sA := f.Entry().Load(f.Param(0), "a")
	ab := m.Atomic("op", f)
	m.MustFinalize()

	mcfg := htm.DefaultConfig()
	mcfg.Cores = 1
	mach := htm.New(mcfg)
	comp := anchor.Compile(m, anchor.DefaultOptions())
	rt := New(mach, comp, DefaultConfig(ModeStaggeredHW))
	th := rt.Thread(0)
	abc := th.ctx(ab)
	abc.activeAnchor = sA.ID
	abc.blockAddr = 0 // coarse: lock whatever address arrives
	abc.confAbortsW = 64

	addrs := []mem.Addr{mach.Alloc.AllocLines(1), mach.Alloc.AllocLines(1),
		mach.Alloc.AllocLines(1), mach.Alloc.AllocLines(1)}
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th.Atomic(ab, func(tc backend.Ctx) {
			for _, a := range addrs {
				tc.Load(sA, a)
			}
			if held, want := tc.(*Thread).lock, rt.lockFor(addrs[0]); held != want {
				t.Errorf("holding lock %#x inside tx, want the first address's %#x", held, want)
			}
		})
	}})
	if got := rt.Metrics.LocksAcquired; got != 1 {
		t.Fatalf("locks acquired = %d, want 1", got)
	}
	// All advisory locks must be free again after commit.
	for i := 0; i < rt.cfg.NumLocks; i++ {
		if mach.Mem.Load(rt.locksBase+mem.Addr(i*mem.LineSize)) != 0 {
			t.Fatalf("lock %d still held after commit", i)
		}
	}
}
