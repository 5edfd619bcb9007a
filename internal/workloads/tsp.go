package workloads

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/simds"
)

// tsp: a branch-and-bound travelling-salesman solver (the paper's own
// C++ benchmark). Candidate tours live in a B+ tree priority queue keyed
// by lower bound; workers pop the most promising task, expand it, and
// push children. The queue head — the tree's left-most leaf — is the
// most contended object; staggered transactions discover it and also
// serialize same-leaf inserts when they repeatedly collide (Section 6.2).
//
// The search tree is synthetic but deterministic: each task spawns two
// children until a fixed depth, so the total expansion count is exact.

const (
	tspSeeds    = 32
	tspDepth    = 4 // each task below depth spawns 2 children
	tspBestSlot = 0
)

// tspTotalTasks is the exact number of pops a full run performs.
func tspTotalTasks() int {
	per := 0
	nodes := 1
	for d := 0; d <= tspDepth; d++ {
		per += nodes
		nodes *= 2
	}
	return tspSeeds * per
}

func init() { register("tsp", tspTotalTasks(), buildTsp) }

func buildTsp() *Workload {
	mod := prog.NewModule("tsp")
	bt := simds.DeclareBPTree(mod)

	// The task queue is a module global bound into both roots, as pop and
	// push share the one priority queue at run time.
	gPQ := mod.Global("taskPQ")
	popRoot := mod.NewFunc("pop_task", "pqPtr")
	popRoot.Entry().Call(bt.FnPop, gPQ)
	abPop := mod.Atomic("pop_task", popRoot)

	pushRoot := mod.NewFunc("push_task", "pqPtr")
	pushRoot.Entry().Call(bt.FnInsert, gPQ)
	abPush := mod.Atomic("push_task", pushRoot)

	bestF := mod.NewFunc("update_best", "bestPtr")
	sBestLd := bestF.Entry().Load(bestF.Param(0), "best")
	sBestSt := bestF.Entry().Store(bestF.Param(0), "best")
	bestRoot := mod.NewFunc("ab_update_best", "bestPtr")
	bestRoot.Entry().Call(bestF, bestRoot.Param(0))
	abBest := mod.Atomic("update_best", bestRoot)
	mod.MustFinalize()

	var pq, best mem.Addr
	var popped []int // per-thread pop counters (Go-side, for Verify)
	return &Workload{
		Name:        "tsp",
		Description: "branch-and-bound TSP over a B+ tree priority queue",
		Contention:  "med",
		Mod:         mod,
		Setup: func(m *htm.Machine, seed int64) {
			pq = simds.NewBPTree(m)
			best = m.Alloc.AllocLines(1)
			m.Mem.Store(best+mem.Addr(8*tspBestSlot), ^uint64(0))
			// Seed tasks: key = bound<<16 | depth.
			for _, bound := range tspSeedBounds(seed) {
				bt.Insert(simds.Direct(m), pq, bound<<16|0, m.Alloc.AllocLines)
			}
			popped = make([]int, m.Config().Cores)
		},
		Body: func(rt backend.Runtime, tid, threads, ops int, seed int64) func(*htm.Core) {
			rng := threadRNG(seed, tid)
			return func(c *htm.Core) {
				th := rt.Thread(c.ID())
				al := func(lines int) mem.Addr { return c.Machine().Alloc.AllocLines(lines) }
				idle := 0
				// Hoisted body closures: see kmeans for why in-loop
				// literals cost one heap allocation per op.
				var task, child, bound uint64
				var ok bool
				popBody := func(tc simds.Ctx) {
					task, ok = bt.PopMin(tc, pq)
					tc.Op(tspPop{task: task, ok: ok})
				}
				pushBody := func(tc simds.Ctx) {
					bt.Insert(tc, pq, child, al)
					tc.Op(tspPush{task: child})
				}
				bestBody := func(tc simds.Ctx) {
					cur := tc.Load(sBestLd, best)
					if bound < cur {
						tc.Store(sBestSt, best, bound)
					}
					tc.Op(tspBest{bound: bound, cur: cur})
				}
				for {
					th.Atomic(c, abPop, popBody)
					if !ok {
						// The queue may be momentarily empty while other
						// threads still expand; retry a few times.
						idle++
						if idle > 40 {
							break
						}
						c.Compute(500)
						continue
					}
					idle = 0
					popped[tid]++
					depth := task & 0xFFFF
					bound = task >> 16
					c.Compute(250) // tour bound computation
					if depth < tspDepth {
						for ch := 0; ch < 2; ch++ {
							delta := uint64(rng.Intn(64) + 1)
							child = (bound+delta)<<16 | (depth + 1)
							th.Atomic(c, abPush, pushBody)
						}
					} else {
						// Leaf: maybe improve the global best tour.
						th.Atomic(c, abBest, bestBody)
					}
				}
			}
		},
		Verify: func(m *htm.Machine, threads, totalOps int) error {
			total := 0
			for _, p := range popped {
				total += p
			}
			if rem := simds.BPTCount(m, pq); total+rem != tspTotalTasks() {
				return fmt.Errorf("popped %d + remaining %d != expanded %d",
					total, rem, tspTotalTasks())
			}
			if m.Mem.Load(best) == ^uint64(0) {
				return fmt.Errorf("no leaf ever improved the best bound")
			}
			return nil
		},
		RefModel: func(m *htm.Machine, seed int64) oracle.RefModel {
			md := &tspModel{m: m, pq: pq, bestAddr: best,
				queue: make(map[uint64]int, tspSeeds), best: ^uint64(0)}
			for _, bound := range tspSeedBounds(seed) { // the tasks Setup seeded
				md.queue[bound<<16]++
				md.size++
			}
			return md
		},
	}
}

// tspSeedBounds are the seeded tasks' bounds, scattered, in the order
// Setup inserts them.
func tspSeedBounds(seed int64) []uint64 {
	rng := threadRNG(seed, 777)
	bounds := make([]uint64, tspSeeds)
	for i := range bounds {
		bounds[i] = uint64(rng.Intn(1 << 12))
	}
	return bounds
}

// Tags for the three tsp atomic blocks. The best-update tag carries the
// bound the transaction read so a lost best-improvement is detectable.
type tspPop struct {
	task uint64
	ok   bool
}
type tspPush struct {
	task uint64
}
type tspBest struct {
	bound uint64
	cur   uint64
}

// tspModel is the sequential priority queue (a multiset — child keys can
// collide) plus the best-bound cell. Every committed pop must return the
// global minimum at its serialization point.
type tspModel struct {
	m        *htm.Machine
	pq       mem.Addr
	bestAddr mem.Addr
	queue    map[uint64]int
	size     int
	best     uint64
}

func (md *tspModel) Step(tag any) error {
	switch op := tag.(type) {
	case tspPop:
		if !op.ok {
			if md.size != 0 {
				return fmt.Errorf("pop returned empty with %d tasks queued", md.size)
			}
			return nil
		}
		if md.size == 0 {
			return fmt.Errorf("pop returned %#x from an empty queue", op.task)
		}
		min := ^uint64(0)
		for k := range md.queue {
			if k < min {
				min = k
			}
		}
		if op.task != min {
			return fmt.Errorf("pop = %#x, sequential queue minimum is %#x", op.task, min)
		}
		if md.queue[min]--; md.queue[min] == 0 {
			delete(md.queue, min)
		}
		md.size--
	case tspPush:
		md.queue[op.task]++
		md.size++
	case tspBest:
		if op.cur != md.best {
			return fmt.Errorf("best-update read %#x, sequential model says %#x", op.cur, md.best)
		}
		if op.bound < md.best {
			md.best = op.bound
		}
	default:
		return fmt.Errorf("tsp: unexpected tag %T", tag)
	}
	return nil
}

func (md *tspModel) Finish() error {
	if rem := simds.BPTCount(md.m, md.pq); rem != md.size {
		return fmt.Errorf("final queue has %d tasks, model has %d", rem, md.size)
	}
	if got := md.m.Mem.Load(md.bestAddr); got != md.best {
		return fmt.Errorf("final best = %#x, sequential model says %#x", got, md.best)
	}
	return nil
}
