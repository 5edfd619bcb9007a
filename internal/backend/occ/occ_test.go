package occ

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/prog"
)

// program is one atomic block with a load site and a store site; the
// tests point them at whatever words they like.
func program() (ab *prog.AtomicBlock, ld, st *prog.Site) {
	m := prog.NewModule("occ")
	f := m.NewFunc("body", "p")
	ld = f.Entry().Load(f.Param(0), "w")
	st = f.Entry().Store(f.Param(0), "w")
	ab = m.Atomic("body", f)
	m.MustFinalize()
	return ab, ld, st
}

// retries is the shared retry-loop configuration New borrows.
type retries int

func (r retries) RetryLoop() htm.AtomicOpts { return htm.AtomicOpts{MaxRetries: int(r)} }

// sim builds a machine with the serializability oracle installed and an
// OCC runtime on it, plus n words on n distinct cache lines.
func sim(cores, maxRetries, n int) (*htm.Machine, *Runtime, *oracle.Checker, []mem.Addr) {
	cfg := htm.DefaultConfig()
	cfg.Cores = cores
	mach := htm.New(cfg)
	rt := New(mach, backend.Options{StaggerConfig: retries(maxRetries)})
	words := make([]mem.Addr, n)
	for i := range words {
		words[i] = mach.Alloc.AllocLines(1)
	}
	chk := oracle.New(mach.Mem.Snapshot(), nil)
	mach.SetObserver(chk)
	return mach, rt, chk, words
}

// verdict fails the test unless the oracle saw a serializable run.
func verdict(t *testing.T, mach *htm.Machine, chk *oracle.Checker) {
	t.Helper()
	chk.FinalCheck(mach.Mem)
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
}

// A word of the read set changes between the optimistic read and the
// commit: validation must fail, the attempt must count as one conflict
// abort, and the body must run again against the new value.
func TestValidationFailureReexecutesAndCountsAbort(t *testing.T) {
	ab, ld, st := program()
	mach, rt, chk, w := sim(2, 10, 2)
	x, y := w[0], w[1]
	runs := 0
	mach.Run([]func(*htm.Core){
		func(c *htm.Core) {
			rt.Thread(0).Atomic(ab, func(tc backend.Ctx) {
				runs++
				v := tc.Load(ld, x)
				tc.Compute(5000) // the window the rival's store lands in
				tc.Store(st, y, v+1)
			})
		},
		func(c *htm.Core) {
			c.Compute(500)
			c.NTStore(x, 41)
		},
	})
	s := mach.Core(0).Stats()
	if runs != 2 || s.Aborts[htm.AbortConflict] != 1 || s.TotalAborts() != 1 || s.Commits != 1 || s.IrrevocableCommits != 0 {
		t.Fatalf("body ran %d times, stats %+v; want 2 runs, 1 conflict abort, 1 optimistic commit", runs, *s)
	}
	if got := mach.Mem.Load(y); got != 42 {
		t.Fatalf("y = %d, want 42: the commit must come from the re-execution that read x = 41", got)
	}
	if s.WastedTxCycles < 5000/4 {
		t.Fatalf("wasted cycles %d, want the failed attempt's 5000 µ-ops (4 a cycle) accounted as wasted", s.WastedTxCycles)
	}
	verdict(t, mach, chk)
}

// One attempt sees one version of each word: a repeated read returns the
// value logged at the first read even after a rival overwrites memory,
// and a read after the attempt's own write returns the buffered value
// without touching memory or joining the read set (which would make
// validation compare memory against a value it never held).
func TestAttemptReadsItsOwnLogAndBuffer(t *testing.T) {
	ab, ld, st := program()
	mach, rt, chk, w := sim(2, 10, 2)
	x, y := w[0], w[1]
	runs := 0
	mach.Run([]func(*htm.Core){
		func(c *htm.Core) {
			rt.Thread(0).Atomic(ab, func(tc backend.Ctx) {
				runs++
				first := tc.Load(ld, x)
				tc.Compute(5000) // the rival's store to x lands here on the first run
				if again := tc.Load(ld, x); again != first {
					t.Errorf("run %d: x read as %d, then as %d, inside one attempt", runs, first, again)
				}
				tc.Store(st, y, first+1)
				ctx, loads := tc.(*Thread), c.Stats().NTLoads
				if got := tc.Load(ld, y); got != first+1 {
					t.Errorf("run %d: read %d back from y after buffering %d", runs, got, first+1)
				}
				if r := ctx.reads.Words(); len(r) != 1 || r[0].Addr != x || c.Stats().NTLoads != loads {
					t.Errorf("run %d: read set %v after reading a buffered word, want only x; memory loads %d -> %d",
						runs, r, loads, c.Stats().NTLoads)
				}
			})
		},
		func(c *htm.Core) {
			c.Compute(500)
			c.NTStore(x, 41)
		},
	})
	if runs != 2 || mach.Mem.Load(y) != 42 {
		t.Fatalf("body ran %d times and left y = %d; want a failed validation, then a commit of 42", runs, mach.Mem.Load(y))
	}
	verdict(t, mach, chk)
}

// A writer keeps committing the same value to eight words on eight
// lines; readers committing concurrently must each see one generation
// across all eight, never a mix — and the oracle must agree.
func TestWriteSetVisibleAllOrNothing(t *testing.T) {
	const gens, readers, reads = 40, 3, 25
	ab, ld, st := program()
	mach, rt, chk, w := sim(1+readers, 10, 8)
	bodies := []func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		for g := uint64(1); g <= gens; g++ {
			th.Atomic(ab, func(tc backend.Ctx) {
				for _, a := range w {
					tc.Store(st, a, g)
					tc.Compute(20)
				}
			})
			c.Compute(1200) // readers fit between some commits and straddle others
		}
	}}
	seen := make([]map[uint64]bool, readers) // generations each reader committed a read of
	for r := 0; r < readers; r++ {
		seen[r] = map[uint64]bool{}
		bodies = append(bodies, func(c *htm.Core) {
			th := rt.Thread(c.ID())
			for k := 0; k < reads; k++ {
				var got [8]uint64
				th.Atomic(ab, func(tc backend.Ctx) {
					for i, a := range w {
						got[i] = tc.Load(ld, a)
						tc.Compute(30) // stretch the snapshot across the writer's commits
					}
				})
				// got is what the committed (last) execution observed.
				for _, v := range got {
					if v != got[0] {
						t.Errorf("reader %d committed a torn snapshot %v", c.ID(), got)
						return
					}
				}
				seen[c.ID()-1][got[0]] = true
			}
		})
	}
	mach.Run(bodies)
	if st := mach.Stats(); st.TotalAborts() == 0 {
		t.Fatal("no validation ever failed: the readers never overlapped a commit, so the test proved nothing")
	}
	for r, gs := range seen {
		if len(gs) < 2 {
			t.Fatalf("reader %d only ever saw generations %v: no concurrency with the writer", r+1, gs)
		}
	}
	for _, a := range w {
		if got := mach.Mem.Load(a); got != gens {
			t.Fatalf("word %#x = %d after the run, want %d", uint64(a), got, gens)
		}
	}
	verdict(t, mach, chk)
}

// A long block whose read set a stream of short rival commits keeps
// invalidating: after MaxRetries failed validations it must take the
// commit lock, run once more irrevocably, and commit.
func TestFallbackAfterMaxRetriesCommits(t *testing.T) {
	const maxRetries, rivals = 3, 1500
	ab, ld, st := program()
	mach, rt, chk, w := sim(2, maxRetries, 2)
	x, y := w[0], w[1]
	runs := 0
	mach.Run([]func(*htm.Core){
		func(c *htm.Core) {
			rt.Thread(0).Atomic(ab, func(tc backend.Ctx) {
				runs++
				v := tc.Load(ld, x)
				tc.Compute(12000) // 3000 cycles at 4 µ-ops a cycle
				tc.Store(st, y, v+1)
			})
		},
		func(c *htm.Core) {
			th := rt.Thread(1)
			for k := 0; k < rivals; k++ {
				th.Atomic(ab, func(tc backend.Ctx) {
					tc.Store(st, x, tc.Load(ld, x)+1)
				})
			}
		},
	})
	s := mach.Core(0).Stats()
	if runs != maxRetries+1 || s.Aborts[htm.AbortConflict] != maxRetries || s.Commits != 1 || s.IrrevocableCommits != 1 {
		t.Fatalf("body ran %d times, stats %+v; want %d failed validations, then one irrevocable commit",
			runs, *s, maxRetries)
	}
	if xv, yv := mach.Mem.Load(x), mach.Mem.Load(y); xv != rivals || yv == 0 || yv > rivals+1 {
		t.Fatalf("x = %d, y = %d; want every rival increment applied and y = (x as the fallback read it) + 1", xv, yv)
	}
	if waited := mach.Core(1).Stats().WaitCycles[htm.WaitLock]; waited < 2500 {
		t.Fatalf("the rival waited %d cycles on the commit lock; the fallback must hold it across its 3000-cycle body", waited)
	}
	verdict(t, mach, chk)
}
