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
			rng := threadRNG(seed, 777)
			// Seed tasks: key = bound<<16 | depth; bounds scattered.
			for i := 0; i < tspSeeds; i++ {
				bound := uint64(rng.Intn(1 << 12))
				key := bound<<16 | 0
				seedBPTInsert(m, pq, key)
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
			// Rebuild the seed tasks exactly as Setup did.
			rng := threadRNG(seed, 777)
			for i := 0; i < tspSeeds; i++ {
				bound := uint64(rng.Intn(1 << 12))
				md.queue[bound<<16]++
				md.size++
			}
			return md
		},
	}
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

// seedBPTInsert inserts into the B+ tree directly (setup only): since the
// tree is empty except for seeds, inserting into the root leaf chain is
// enough as long as tspSeeds splits are honored — so just reuse the
// transactional insert under a throwaway machine-less context? Simpler:
// store seeds through leaf splits performed offline.
func seedBPTInsert(m *htm.Machine, tree mem.Addr, key uint64) {
	// Direct-memory B+ insert mirroring simds.BPTree.Insert (setup only).
	root := mem.Addr(m.Mem.Load(tree))
	height := int(m.Mem.Load(tree + 8))
	type frame struct {
		node mem.Addr
		idx  int
	}
	var path []frame
	node := root
	for lvl := height; lvl > 0; lvl-- {
		n := int(m.Mem.Load(node))
		i := 0
		for i < n && key >= m.Mem.Load(node+mem.Addr(8*(1+i))) {
			i++
		}
		path = append(path, frame{node, i})
		node = mem.Addr(m.Mem.Load(node + mem.Addr(8*(8+i))))
	}
	n := int(m.Mem.Load(node))
	keys := make([]uint64, 0, 8)
	for i := 0; i < n; i++ {
		keys = append(keys, m.Mem.Load(node+mem.Addr(8*(2+i))))
	}
	pos := 0
	for pos < n && keys[pos] <= key {
		pos++
	}
	keys = append(keys, 0)
	copy(keys[pos+1:], keys[pos:])
	keys[pos] = key
	if len(keys) <= 6 {
		for i, k := range keys {
			m.Mem.Store(node+mem.Addr(8*(2+i)), k)
		}
		m.Mem.Store(node, uint64(len(keys)))
		return
	}
	mid := 3
	right := m.Alloc.AllocLines(1)
	for i, k := range keys[:mid] {
		m.Mem.Store(node+mem.Addr(8*(2+i)), k)
	}
	m.Mem.Store(node, uint64(mid))
	for i, k := range keys[mid:] {
		m.Mem.Store(right+mem.Addr(8*(2+i)), k)
	}
	m.Mem.Store(right, uint64(len(keys)-mid))
	m.Mem.Store(right+8, m.Mem.Load(node+8))
	m.Mem.Store(node+8, uint64(right))
	// Propagate the separator up.
	sep := keys[mid]
	rightChild := right
	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		p := path[lvl]
		pn := int(m.Mem.Load(p.node))
		pkeys := make([]uint64, pn, 8)
		pkids := make([]uint64, pn+1, 9)
		for i := 0; i < pn; i++ {
			pkeys[i] = m.Mem.Load(p.node + mem.Addr(8*(1+i)))
		}
		for i := 0; i <= pn; i++ {
			pkids[i] = m.Mem.Load(p.node + mem.Addr(8*(8+i)))
		}
		pkeys = append(pkeys, 0)
		copy(pkeys[p.idx+1:], pkeys[p.idx:])
		pkeys[p.idx] = sep
		pkids = append(pkids, 0)
		copy(pkids[p.idx+2:], pkids[p.idx+1:])
		pkids[p.idx+1] = uint64(rightChild)
		if len(pkeys) <= 6 {
			writeIntDirect(m, p.node, pkeys, pkids)
			return
		}
		midI := len(pkeys) / 2
		sep = pkeys[midI]
		r2 := m.Alloc.AllocLines(2)
		writeIntDirect(m, p.node, pkeys[:midI], pkids[:midI+1])
		writeIntDirect(m, r2, pkeys[midI+1:], pkids[midI+1:])
		rightChild = r2
	}
	oldRoot := mem.Addr(m.Mem.Load(tree))
	newRoot := m.Alloc.AllocLines(2)
	writeIntDirect(m, newRoot, []uint64{sep}, []uint64{uint64(oldRoot), uint64(rightChild)})
	m.Mem.Store(tree, uint64(newRoot))
	m.Mem.Store(tree+8, uint64(height+1))
}

func writeIntDirect(m *htm.Machine, node mem.Addr, keys, kids []uint64) {
	for i, k := range keys {
		m.Mem.Store(node+mem.Addr(8*(1+i)), k)
	}
	for i, c := range kids {
		m.Mem.Store(node+mem.Addr(8*(8+i)), c)
	}
	m.Mem.Store(node, uint64(len(keys)))
}
