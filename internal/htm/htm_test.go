package htm

import (
	"testing"

	"repro/internal/mem"
)

func smallConfig(cores int) Config {
	cfg := DefaultConfig()
	cfg.Cores = cores
	return cfg
}

func TestSingleThreadCommit(t *testing.T) {
	m := New(smallConfig(1))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
			c.Store(0x100, 1, a, 7)
		})
	}})
	if got := m.Mem.Load(a); got != 7 {
		t.Fatalf("committed value = %d, want 7", got)
	}
	s := m.Stats()
	if s.Commits != 1 || s.TotalAborts() != 0 {
		t.Fatalf("commits=%d aborts=%d", s.Commits, s.TotalAborts())
	}
}

func TestSpeculativeWritesInvisibleUntilCommit(t *testing.T) {
	m := New(smallConfig(1))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		c.TxBegin()
		c.Store(0x100, 1, a, 42)
		if m.Mem.Load(a) != 0 {
			t.Error("speculative store visible in memory before commit")
		}
		if c.Load(0x104, 2, a) != 42 {
			t.Error("transaction cannot read its own write")
		}
		c.TxCommit()
		if m.Mem.Load(a) != 42 {
			t.Error("commit did not publish write")
		}
	}})
}

func TestExplicitAbortDiscardsWrites(t *testing.T) {
	m := New(smallConfig(1))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		func() {
			defer func() {
				if _, ok := recover().(*txAbort); !ok {
					t.Error("expected txAbort panic")
				}
			}()
			c.TxBegin()
			c.Store(0x100, 1, a, 99)
			c.TxAbortExplicit()
		}()
		if m.Mem.Load(a) != 0 {
			t.Error("aborted store leaked to memory")
		}
		if c.InTx() {
			t.Error("still in tx after abort")
		}
	}})
}

// TestWriteWriteConflictRequesterWins checks the eager requester-wins
// policy: when core 1 stores to a line core 0 has speculatively written,
// core 0 aborts with the conflicting address and PC.
func TestWriteWriteConflictRequesterWins(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	var victimInfo AbortInfo
	gotAbort := false
	m.Run([]func(*Core){
		func(c *Core) {
			func() {
				defer func() {
					if ta, ok := recover().(*txAbort); ok {
						victimInfo = ta.info
						gotAbort = true
					}
				}()
				c.TxBegin()
				c.Store(0x111, 5, a, 1)
				// Spin far into the future so core 1 acts while we are
				// speculative; the abort is delivered at the next event.
				for i := 0; i < 100; i++ {
					c.SpinWait(100, WaitBackoff)
				}
				c.TxCommit()
			}()
		},
		func(c *Core) {
			c.SpinWait(500, WaitBackoff) // let core 0 write first
			c.TxBegin()
			c.Store(0x222, 6, a, 2)
			c.TxCommit()
		},
	})
	if !gotAbort {
		t.Fatal("victim did not abort")
	}
	if victimInfo.Reason != AbortConflict {
		t.Fatalf("reason = %v, want conflict", victimInfo.Reason)
	}
	if victimInfo.ConfAddr != mem.LineOf(a) {
		t.Fatalf("ConfAddr = %#x, want %#x", victimInfo.ConfAddr, mem.LineOf(a))
	}
	if !victimInfo.HasPC || victimInfo.ConfPC != 0x111 {
		t.Fatalf("ConfPC = %#x (has=%v), want 0x111", victimInfo.ConfPC, victimInfo.HasPC)
	}
	if victimInfo.TrueSite != 5 {
		t.Fatalf("TrueSite = %d, want 5", victimInfo.TrueSite)
	}
	if got := m.Mem.Load(a); got != 2 {
		t.Fatalf("memory = %d, want winner's 2", got)
	}
}

// TestReadersAbortOnRemoteStore checks W/R conflicts: a store by one core
// aborts all speculative readers of the line.
func TestReadersAbortOnRemoteStore(t *testing.T) {
	m := New(smallConfig(3))
	a := m.Alloc.AllocLines(1)
	aborted := make([]bool, 3)
	reader := func(c *Core) {
		func() {
			defer func() {
				if _, ok := recover().(*txAbort); ok {
					aborted[c.ID()] = true
				}
			}()
			c.TxBegin()
			c.Load(0x100, 1, a)
			for i := 0; i < 50; i++ {
				c.SpinWait(100, WaitBackoff)
			}
			c.TxCommit()
		}()
	}
	m.Run([]func(*Core){
		reader,
		reader,
		func(c *Core) {
			c.SpinWait(400, WaitBackoff)
			c.Store(0x300, 9, a, 1) // plain store, outside tx
		},
	})
	if !aborted[0] || !aborted[1] {
		t.Fatalf("readers not aborted: %v", aborted)
	}
}

// TestReadSharingNoConflict checks that concurrent speculative readers do
// not abort one another.
func TestReadSharingNoConflict(t *testing.T) {
	m := New(smallConfig(4))
	a := m.Alloc.AllocLines(1)
	m.Mem.Store(a, 5)
	m.Run([]func(*Core){
		func(c *Core) { readTx(t, c, a) },
		func(c *Core) { readTx(t, c, a) },
		func(c *Core) { readTx(t, c, a) },
		func(c *Core) { readTx(t, c, a) },
	})
	s := m.Stats()
	if s.TotalAborts() != 0 {
		t.Fatalf("aborts = %d, want 0", s.TotalAborts())
	}
	if s.Commits != 4 {
		t.Fatalf("commits = %d, want 4", s.Commits)
	}
}

func readTx(t *testing.T, c *Core, a mem.Addr) {
	t.Helper()
	c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
		if c.Load(0x100, 1, a) != 5 {
			t.Error("wrong value read")
		}
		c.Compute(50)
	})
}

// TestNTLoadDoesNotJoinReadSet: a remote store to a nontransactionally
// read location must not abort the transaction.
func TestNTLoadDoesNotJoinReadSet(t *testing.T) {
	m := New(smallConfig(2))
	lockw := m.Alloc.AllocLines(1)
	data := m.Alloc.AllocLines(1)
	committed := false
	m.Run([]func(*Core){
		func(c *Core) {
			c.TxBegin()
			c.Load(0x100, 1, data)
			c.NTLoad(lockw) // observe the "lock" nontransactionally
			for i := 0; i < 50; i++ {
				c.SpinWait(100, WaitBackoff)
			}
			c.TxCommit()
			committed = true
		},
		func(c *Core) {
			c.SpinWait(600, WaitBackoff)
			c.NTStore(lockw, 1) // write the lock word
		},
	})
	if !committed {
		t.Fatal("NT-read location caused an abort")
	}
}

// TestNTStoreAbortsTransactionalReaders: an NT store to a location that a
// transaction HAS read transactionally must abort it (correctness).
func TestNTStoreAbortsTransactionalReaders(t *testing.T) {
	m := New(smallConfig(2))
	data := m.Alloc.AllocLines(1)
	aborted := false
	m.Run([]func(*Core){
		func(c *Core) {
			func() {
				defer func() {
					if _, ok := recover().(*txAbort); ok {
						aborted = true
					}
				}()
				c.TxBegin()
				c.Load(0x100, 1, data)
				for i := 0; i < 50; i++ {
					c.SpinWait(100, WaitBackoff)
				}
				c.TxCommit()
			}()
		},
		func(c *Core) {
			c.SpinWait(600, WaitBackoff)
			c.NTStore(data, 1)
		},
	})
	if !aborted {
		t.Fatal("NT store to transactionally-read line did not abort reader")
	}
}

// TestNTStoreImmediateAndSurvivesAbort: ASF-style NT stores are visible at
// once and persist across an abort of the enclosing transaction.
func TestNTStoreImmediateAndSurvivesAbort(t *testing.T) {
	m := New(smallConfig(1))
	nt := m.Alloc.AllocLines(1)
	txd := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		func() {
			defer func() { recover() }()
			c.TxBegin()
			c.NTStore(nt, 77)
			if m.Mem.Load(nt) != 77 {
				t.Error("NT store not immediately visible")
			}
			c.Store(0x100, 1, txd, 88)
			c.TxAbortExplicit()
		}()
		if m.Mem.Load(nt) != 77 {
			t.Error("NT store did not survive abort")
		}
		if m.Mem.Load(txd) != 0 {
			t.Error("transactional store leaked past abort")
		}
	}})
}

func TestNTCas(t *testing.T) {
	m := New(smallConfig(1))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		if !c.NTCas(a, 0, 5) {
			t.Error("CAS on expected value failed")
		}
		if c.NTCas(a, 0, 6) {
			t.Error("CAS on stale value succeeded")
		}
		if c.NTLoad(a) != 5 {
			t.Error("CAS result wrong")
		}
	}})
}

// TestOverflowAbort fills one L1 set beyond associativity with speculative
// lines and expects a capacity abort.
func TestOverflowAbort(t *testing.T) {
	cfg := smallConfig(1)
	cfg.L1Lines = 16
	cfg.L1Ways = 4 // 4 sets x 4 ways
	m := New(cfg)
	var reason AbortReason
	m.Run([]func(*Core){func(c *Core) {
		func() {
			defer func() {
				if ta, ok := recover().(*txAbort); ok {
					reason = ta.info.Reason
				}
			}()
			c.TxBegin()
			// Lines mapping to the same set: stride = nsets * linesize.
			for i := 0; i < 8; i++ {
				c.Load(0x100+uint64(i), 1, mem.Addr(0x100000+i*4*64))
			}
			c.TxCommit()
		}()
	}})
	if reason != AbortOverflow {
		t.Fatalf("reason = %v, want overflow", reason)
	}
}

// TestIrrevocableFallback forces repeated conflicts so one thread gives up
// and runs under the global lock, and checks both threads' effects land.
func TestIrrevocableFallback(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	opts := DefaultAtomicOpts()
	opts.MaxRetries = 1 // first abort forces irrevocability
	body := func(c *Core) {
		v := c.Load(0x100, 1, a)
		c.Compute(2000)
		c.Store(0x104, 2, a, v+1)
	}
	m.Run([]func(*Core){
		func(c *Core) {
			for i := 0; i < 20; i++ {
				c.Atomic(opts, TxHooks{}, body)
			}
		},
		func(c *Core) {
			for i := 0; i < 20; i++ {
				c.Atomic(opts, TxHooks{}, body)
			}
		},
	})
	if got := m.Mem.Load(a); got != 40 {
		t.Fatalf("counter = %d, want 40 (atomicity violated)", got)
	}
	s := m.Stats()
	if s.Commits != 40 {
		t.Fatalf("commits = %d, want 40", s.Commits)
	}
}

// TestAtomicCounterManyThreads is the classic atomicity stress: N threads
// increment a shared counter; the result must be exact.
func TestAtomicCounterManyThreads(t *testing.T) {
	const threads, incs = 8, 50
	m := New(smallConfig(threads))
	a := m.Alloc.AllocLines(1)
	bodies := make([]func(*Core), threads)
	for i := range bodies {
		bodies[i] = func(c *Core) {
			for k := 0; k < incs; k++ {
				c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
					v := c.Load(0x100, 1, a)
					c.Store(0x104, 2, a, v+1)
				})
			}
		}
	}
	m.Run(bodies)
	if got := m.Mem.Load(a); got != threads*incs {
		t.Fatalf("counter = %d, want %d", got, threads*incs)
	}
	s := m.Stats()
	if s.Commits != threads*incs {
		t.Fatalf("commits = %d, want %d", s.Commits, threads*incs)
	}
}

// TestDeterminism runs the same contended workload twice and requires
// bit-identical statistics.
func TestDeterminism(t *testing.T) {
	run := func() Stats {
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
		return m.Stats()
	}
	s1, s2 := run(), run()
	if s1.Makespan != s2.Makespan || s1.Commits != s2.Commits ||
		s1.TotalAborts() != s2.TotalAborts() ||
		s1.UsefulTxCycles != s2.UsefulTxCycles ||
		s1.WastedTxCycles != s2.WastedTxCycles {
		t.Fatalf("nondeterministic: %+v vs %+v", s1.CoreStats, s2.CoreStats)
	}
}

// TestNoCPCWhenDisabled: with HardwareCPC off, conflict aborts must not
// report a conflicting PC.
func TestNoCPCWhenDisabled(t *testing.T) {
	cfg := smallConfig(2)
	cfg.HardwareCPC = false
	m := New(cfg)
	a := m.Alloc.AllocLines(1)
	sawPC := false
	sawAbort := false
	m.Run([]func(*Core){
		func(c *Core) {
			hooks := TxHooks{OnAbort: func(info AbortInfo, _ int) {
				sawAbort = true
				if info.HasPC {
					sawPC = true
				}
			}}
			for i := 0; i < 30; i++ {
				c.Atomic(DefaultAtomicOpts(), hooks, func(c *Core) {
					v := c.Load(0x100, 1, a)
					c.Compute(500)
					c.Store(0x104, 2, a, v+1)
				})
			}
		},
		func(c *Core) {
			for i := 0; i < 30; i++ {
				c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
					v := c.Load(0x200, 3, a)
					c.Compute(500)
					c.Store(0x204, 4, a, v+1)
				})
			}
		},
	})
	if sawAbort && sawPC {
		t.Fatal("conflicting PC reported despite HardwareCPC=false")
	}
	if m.Mem.Load(a) != 60 {
		t.Fatalf("counter = %d, want 60", m.Mem.Load(a))
	}
}

// TestPCTagTruncation: recorded conflicting PCs carry only the low
// PCTagBits bits.
func TestPCTagTruncation(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	var pcs []uint64
	m.Run([]func(*Core){
		func(c *Core) {
			hooks := TxHooks{OnAbort: func(info AbortInfo, _ int) {
				if info.HasPC {
					pcs = append(pcs, info.ConfPC)
				}
			}}
			for i := 0; i < 30; i++ {
				c.Atomic(DefaultAtomicOpts(), hooks, func(c *Core) {
					v := c.Load(0xABC123, 1, a) // full PC wider than 12 bits
					c.Compute(500)
					c.Store(0xABC127, 2, a, v+1)
				})
			}
		},
		func(c *Core) {
			for i := 0; i < 30; i++ {
				c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
					v := c.Load(0xDEF987, 3, a)
					c.Compute(500)
					c.Store(0xDEF98B, 4, a, v+1)
				})
			}
		},
	})
	for _, pc := range pcs {
		if pc != 0x123 && pc != 0x127 {
			t.Fatalf("truncated PC = %#x, want 0x123 or 0x127", pc)
		}
	}
	if len(pcs) == 0 {
		t.Skip("no conflict aborts observed; contention too low")
	}
}

// TestEngineVirtualTimeOrdering: cores' events interleave by virtual time,
// so a core that stalls lets others run far ahead.
func TestEngineVirtualTimeOrdering(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	b := m.Alloc.AllocLines(1)
	var order []int
	m.Run([]func(*Core){
		func(c *Core) {
			c.SpinWait(10000, WaitBackoff)
			c.Store(0x1, 1, a, 1)
			order = append(order, 0)
		},
		func(c *Core) {
			c.Store(0x2, 2, b, 1)
			order = append(order, 1)
		},
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v, want [1 0]", order)
	}
}

func TestStatsCycleAccounting(t *testing.T) {
	m := New(smallConfig(1))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
			c.Store(0x100, 1, a, 1)
			c.Compute(400)
		})
	}})
	s := m.Stats()
	if s.UsefulTxCycles == 0 {
		t.Fatal("no useful cycles recorded")
	}
	if s.WastedTxCycles != 0 {
		t.Fatal("wasted cycles recorded without aborts")
	}
	if s.Uops < 401 {
		t.Fatalf("uops = %d, want >= 401", s.Uops)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 64 },
		func(c *Config) { c.L1Lines = 10; c.L1Ways = 4 },
		func(c *Config) { c.PCTagBits = 0 },
		func(c *Config) { c.HeapBase = 3 },
	}
	for i, mutate := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected validation panic", i)
				}
			}()
			cfg := DefaultConfig()
			mutate(&cfg)
			New(cfg)
		}()
	}
}

func TestRunTwicePanics(t *testing.T) {
	m := New(smallConfig(1))
	m.Run([]func(*Core){func(c *Core) {}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Run")
		}
	}()
	m.Run([]func(*Core){func(c *Core) {}})
}

func TestWorkloadPanicPropagates(t *testing.T) {
	m := New(smallConfig(1))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("workload panic swallowed")
		}
	}()
	m.Run([]func(*Core){func(c *Core) {
		c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
			panic("workload bug")
		})
	}})
}
