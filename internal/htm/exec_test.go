package htm

import (
	"testing"
)

// TestHookSequence: OnBegin fires before every attempt, OnAbort after
// each failed one, OnCommit exactly once at the end.
func TestHookSequence(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	var trace []string
	m.Run([]func(*Core){
		func(c *Core) {
			hooks := TxHooks{
				OnBegin:  func(att int) { trace = append(trace, "begin") },
				OnAbort:  func(info AbortInfo, att int) { trace = append(trace, "abort") },
				OnCommit: func(irr bool) { trace = append(trace, "commit") },
			}
			for i := 0; i < 10; i++ {
				c.Atomic(DefaultAtomicOpts(), hooks, func(c *Core) {
					v := c.Load(0x100, 1, a)
					c.Compute(400)
					c.Store(0x104, 2, a, v+1)
				})
			}
		},
		func(c *Core) {
			for i := 0; i < 10; i++ {
				c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
					v := c.Load(0x200, 3, a)
					c.Compute(400)
					c.Store(0x204, 4, a, v+1)
				})
			}
		},
	})
	begins, aborts, commits := 0, 0, 0
	pending := 0 // begins not yet resolved
	for _, e := range trace {
		switch e {
		case "begin":
			begins++
			if pending != 0 {
				t.Fatal("begin while an attempt is outstanding")
			}
			pending = 1
		case "abort":
			aborts++
			if pending != 1 {
				t.Fatal("abort without begin")
			}
			pending = 0
		case "commit":
			commits++
			pending = 0
		}
	}
	if commits != 10 {
		t.Fatalf("commits = %d, want 10", commits)
	}
	// Every begin resolves to an abort or a commit; irrevocable commits
	// have no speculative begin of their own, so begins may fall short by
	// at most the commit count.
	if begins > commits+aborts || begins < aborts {
		t.Fatalf("begins=%d aborts=%d commits=%d inconsistent", begins, aborts, commits)
	}
}

// TestIrrevocableHookFires: when retries are exhausted, OnIrrevocable
// runs before the body's irrevocable execution.
func TestIrrevocableHookFires(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	sawIrrevocable := false
	opts := DefaultAtomicOpts()
	opts.MaxRetries = 1
	m.Run([]func(*Core){
		func(c *Core) {
			hooks := TxHooks{OnIrrevocable: func() { sawIrrevocable = true }}
			for i := 0; i < 15; i++ {
				c.Atomic(opts, hooks, func(c *Core) {
					v := c.Load(0x100, 1, a)
					c.Compute(1500)
					c.Store(0x104, 2, a, v+1)
				})
			}
		},
		func(c *Core) {
			for i := 0; i < 15; i++ {
				c.Atomic(opts, TxHooks{}, func(c *Core) {
					v := c.Load(0x200, 3, a)
					c.Compute(1500)
					c.Store(0x204, 4, a, v+1)
				})
			}
		},
	})
	if !sawIrrevocable {
		t.Fatal("no irrevocable execution despite MaxRetries=1 under contention")
	}
	if m.Mem.Load(a) != 30 {
		t.Fatalf("counter = %d, want 30", m.Mem.Load(a))
	}
}

// TestBackoffGrowsWithRetries: mean backoff must scale with the attempt
// number (Polite policy).
func TestBackoffGrowsWithRetries(t *testing.T) {
	m := New(smallConfig(1))
	c := m.Core(0)
	polite := AtomicOpts{BackoffBase: 64}
	m.Run([]func(*Core){func(c *Core) {
		lowSum, highSum := uint64(0), uint64(0)
		for i := 0; i < 50; i++ {
			t0 := c.Now()
			c.Backoff(polite, 0, c.rand())
			lowSum += c.Now() - t0
			t0 = c.Now()
			c.Backoff(polite, 7, c.rand())
			highSum += c.Now() - t0
		}
		if highSum <= lowSum*3 {
			t.Errorf("backoff(7)=%d not much larger than backoff(0)=%d", highSum, lowSum)
		}
	}})
	_ = c
}

// TestGlobalLockBlocksNewTransactions: while one thread runs
// irrevocably, speculative commits must fail with AbortLockHeld or wait.
func TestGlobalLockBlocksNewTransactions(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	b := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){
		func(c *Core) {
			// Simulate an irrevocable section by taking the global lock.
			c.acquireGlobal()
			c.Store(0x10, 1, a, 1)
			c.SpinWait(5000, WaitGlobal)
			c.releaseGlobal()
		},
		func(c *Core) {
			c.SpinWait(200, WaitBackoff)
			c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
				c.Store(0x20, 2, b, 2)
			})
			// The transaction must have committed strictly after the
			// global section ended.
			if c.Now() < 5000 {
				t.Error("speculative tx committed during irrevocable section")
			}
		},
	})
	if m.Mem.Load(b) != 2 {
		t.Fatal("transaction lost")
	}
}

// TestAtomicOptsDefaults: zero-valued options get sane defaults.
func TestAtomicOptsDefaults(t *testing.T) {
	m := New(smallConfig(1))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		c.Atomic(AtomicOpts{}, TxHooks{}, func(c *Core) {
			c.Store(0x10, 1, a, 9)
		})
	}})
	if m.Mem.Load(a) != 9 {
		t.Fatal("commit failed under default opts")
	}
}

// TestAbortInfoReasonStrings covers the Stringer.
func TestAbortInfoReasonStrings(t *testing.T) {
	want := map[AbortReason]string{
		AbortNone:      "none",
		AbortConflict:  "conflict",
		AbortOverflow:  "overflow",
		AbortExplicit:  "explicit",
		AbortLockHeld:  "lock-held",
		AbortReason(9): "AbortReason(9)",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
}

// TestWastedPlusUsefulCoversTxTime: cycle accounting invariant — every
// transactional attempt lands in exactly one bucket.
func TestWastedPlusUsefulCoversTxTime(t *testing.T) {
	m := New(smallConfig(4))
	a := m.Alloc.AllocLines(1)
	bodies := make([]func(*Core), 4)
	for i := range bodies {
		bodies[i] = func(c *Core) {
			for k := 0; k < 30; k++ {
				c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
					v := c.Load(0x100, 1, a)
					c.Compute(200)
					c.Store(0x104, 2, a, v+1)
				})
			}
		}
	}
	m.Run(bodies)
	s := m.Stats()
	if s.UsefulTxCycles == 0 {
		t.Fatal("no useful cycles")
	}
	if s.TotalAborts() > 0 && s.WastedTxCycles == 0 {
		t.Fatal("aborts recorded but no wasted cycles")
	}
	var totalClock uint64
	for _, cs := range s.PerCore {
		totalClock += cs.FinalClock
	}
	if s.TxCycles() > totalClock {
		t.Fatalf("tx cycles %d exceed total %d", s.TxCycles(), totalClock)
	}
}

// TestNTCasContention: concurrent CAS loops behave like a working
// spinlock (exactly one owner at a time).
func TestNTCasContention(t *testing.T) {
	const threads = 6
	m := New(smallConfig(threads))
	lock := m.Alloc.AllocLines(1)
	shared := m.Alloc.AllocLines(1)
	bodies := make([]func(*Core), threads)
	for i := range bodies {
		bodies[i] = func(c *Core) {
			for k := 0; k < 20; k++ {
				for !c.NTCas(lock, 0, uint64(c.ID())+1) {
					c.SpinWait(20, WaitLock)
				}
				// Non-atomic increment protected by the CAS lock.
				v := c.NTLoad(shared)
				c.Compute(30)
				c.NTStore(shared, v+1)
				c.NTStore(lock, 0)
				c.Compute(40)
			}
		}
	}
	m.Run(bodies)
	if got := m.Mem.Load(shared); got != threads*20 {
		t.Fatalf("counter = %d, want %d (mutual exclusion broken)", got, threads*20)
	}
}

// TestLoadStoreSiteZeroAllowed: runtime-internal accesses use site 0.
func TestLoadStoreSiteZeroAllowed(t *testing.T) {
	m := New(smallConfig(1))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		c.TxBegin()
		c.Store(0xFFF0, 0, a, 1)
		if c.Load(0xFFF4, 0, a) != 1 {
			t.Error("read own write failed")
		}
		c.TxCommit()
	}})
}
