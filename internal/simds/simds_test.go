package simds

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/anchor"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/stagger"
)

// sim builds a machine plus runtime over a declared module.
func sim(t testing.TB, m *prog.Module, mode stagger.Mode, threads int) (*htm.Machine, *stagger.Runtime) {
	t.Helper()
	m.MustFinalize()
	cfg := htm.DefaultConfig()
	cfg.Cores = threads
	cfg.HardwareCPC = mode != stagger.ModeStaggeredSW
	mach := htm.New(cfg)
	comp := anchor.Compile(m, anchor.DefaultOptions())
	rt := stagger.New(mach, comp, stagger.DefaultConfig(mode))
	return mach, rt
}

// single runs body once on a one-core machine inside the atomic block.
func single(t testing.TB, m *prog.Module, ab *prog.AtomicBlock,
	setup func(mach *htm.Machine) interface{},
	body func(tc Ctx, mach *htm.Machine, env interface{})) *htm.Machine {
	t.Helper()
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	env := setup(mach)
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		th.Atomic(ab, func(tc Ctx) {
			body(tc, mach, env)
		})
	}})
	return mach
}

func abFor(m *prog.Module, fn *prog.Func, name string) *prog.AtomicBlock {
	root := m.NewFunc("ab_"+name, "p", "q")
	root.Entry().Call(fn, rootArgs(root, fn)...)
	return m.Atomic(name, root)
}

func rootArgs(root *prog.Func, fn *prog.Func) []*prog.Value {
	args := make([]*prog.Value, len(fn.Params))
	for i := range args {
		args[i] = root.Param(i % 2)
	}
	return args
}

// --- SortedList ---

func TestListSeedAndLookup(t *testing.T) {
	m := prog.NewModule("t")
	l := DeclareSortedList(m)
	ab := abFor(m, l.FnLookup, "lookup")
	single(t, m, ab,
		func(mach *htm.Machine) interface{} {
			list := NewList(mach.Alloc)
			SeedList(mach, list, []uint64{2, 4, 6, 8})
			return list
		},
		func(tc Ctx, mach *htm.Machine, env interface{}) {
			list := env.(mem.Addr)
			for _, k := range []uint64{2, 4, 6, 8} {
				if !l.Lookup(tc, list, k) {
					t.Errorf("key %d missing", k)
				}
			}
			for _, k := range []uint64{1, 3, 9} {
				if l.Lookup(tc, list, k) {
					t.Errorf("phantom key %d", k)
				}
			}
		})
}

func TestListInsertDeleteModel(t *testing.T) {
	m := prog.NewModule("t")
	l := DeclareSortedList(m)
	ab := abFor(m, l.FnInsert, "ops")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	list := NewList(mach.Alloc)
	SeedList(mach, list, []uint64{50})
	model := map[uint64]bool{50: true}
	rng := rand.New(rand.NewSource(7))
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		for i := 0; i < 300; i++ {
			k := uint64(rng.Intn(40))*2 + 2
			op := rng.Intn(3)
			th.Atomic(ab, func(tc Ctx) {
				switch op {
				case 0:
					node := mach.Alloc.AllocLines(1)
					if l.Insert(tc, list, k, node) != !model[k] {
						t.Errorf("insert(%d) disagreed with model", k)
					}
				case 1:
					if l.Delete(tc, list, k) != model[k] {
						t.Errorf("delete(%d) disagreed with model", k)
					}
				case 2:
					if l.Lookup(tc, list, k) != model[k] {
						t.Errorf("lookup(%d) disagreed with model", k)
					}
				}
			})
			switch op {
			case 0:
				model[k] = true
			case 1:
				delete(model, k)
			}
		}
	}})
	got := Keys(mach, list)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("list not sorted: %v", got)
	}
	if len(got) != len(model) {
		t.Fatalf("list has %d keys, model has %d", len(got), len(model))
	}
}

func TestListConcurrentInserts(t *testing.T) {
	const threads = 8
	m := prog.NewModule("t")
	l := DeclareSortedList(m)
	ab := abFor(m, l.FnInsert, "ins")
	mach, rt := sim(t, m, stagger.ModeStaggeredHW, threads)
	list := NewList(mach.Alloc)
	SeedList(mach, list, []uint64{0})
	// Pre-allocate private nodes per thread (allocation is setup, the
	// linking is the measured transaction).
	nodes := make([][]mem.Addr, threads)
	for i := range nodes {
		nodes[i] = make([]mem.Addr, 20)
		for j := range nodes[i] {
			nodes[i][j] = mach.Alloc.AllocLines(1)
		}
	}
	bodies := make([]func(*htm.Core), threads)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			for j := 0; j < 20; j++ {
				key := uint64(1 + tid*20 + j)
				node := nodes[tid][j]
				th.Atomic(ab, func(tc Ctx) {
					l.Insert(tc, list, key, node)
				})
			}
		}
	}
	mach.Run(bodies)
	got := Keys(mach, list)
	if len(got) != threads*20+1 {
		t.Fatalf("len = %d, want %d", len(got), threads*20+1)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted at %d: %v", i, got[i-3:i+1])
		}
	}
}

// --- Queue ---

func TestQueueFIFO(t *testing.T) {
	m := prog.NewModule("t")
	q := DeclareQueue(m)
	ab := abFor(m, q.FnPop, "q")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	qa := NewQueue(mach.Alloc)
	for _, v := range []uint64{1, 2, 3} {
		q.Push(Direct(mach), qa, v, mach.Alloc.AllocLines(1))
	}
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		var got []uint64
		for i := 0; i < 3; i++ {
			th.Atomic(ab, func(tc Ctx) {
				v, ok := q.Pop(tc, qa)
				if !ok {
					t.Error("unexpected empty")
				}
				got = append(got, v)
			})
		}
		th.Atomic(ab, func(tc Ctx) {
			if _, ok := q.Pop(tc, qa); ok {
				t.Error("pop from empty succeeded")
			}
		})
		for i, v := range got {
			if v != uint64(i+1) {
				t.Errorf("pop order %v", got)
			}
		}
		// Refill through Push, then drain again.
		for i := 10; i < 13; i++ {
			node := mach.Alloc.AllocLines(1)
			v := uint64(i)
			th.Atomic(ab, func(tc Ctx) {
				q.Push(tc, qa, v, node)
			})
		}
		if n := QueueLen(mach, qa); n != 3 {
			t.Errorf("len = %d, want 3", n)
		}
		th.Atomic(ab, func(tc Ctx) {
			if v, ok := q.Pop(tc, qa); !ok || v != 10 {
				t.Errorf("pop = %d,%v; want 10", v, ok)
			}
		})
	}})
}

func TestQueueConcurrentConservation(t *testing.T) {
	const threads = 6
	m := prog.NewModule("t")
	q := DeclareQueue(m)
	ab := abFor(m, q.FnPop, "q")
	mach, rt := sim(t, m, stagger.ModeStaggeredHW, threads)
	src := NewQueue(mach.Alloc)
	dst := NewQueue(mach.Alloc)
	vals := make([]uint64, 60)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	for _, v := range vals {
		q.Push(Direct(mach), src, v, mach.Alloc.AllocLines(1))
	}
	nodes := make([][]mem.Addr, threads)
	for i := range nodes {
		for j := 0; j < len(vals); j++ {
			nodes[i] = append(nodes[i], mach.Alloc.AllocLines(1))
		}
	}
	bodies := make([]func(*htm.Core), threads)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			for j := 0; ; j++ {
				done := false
				th.Atomic(ab, func(tc Ctx) {
					v, ok := q.Pop(tc, src)
					if !ok {
						done = true
						return
					}
					tc.Compute(200)
					q.Push(tc, dst, v, nodes[tid][j])
				})
				if done {
					break
				}
			}
		}
	}
	mach.Run(bodies)
	if n := QueueLen(mach, dst); n != len(vals) {
		t.Fatalf("transferred %d, want %d", n, len(vals))
	}
	if n := QueueLen(mach, src); n != 0 {
		t.Fatalf("source still has %d", n)
	}
	// Every value must appear exactly once in dst.
	seen := make(map[uint64]bool)
	cur := mem.Addr(mach.Mem.Load(dst + w(qHeadOff)))
	for cur != nilPtr {
		v := mach.Mem.Load(cur + w(qValOff))
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
		cur = mem.Addr(mach.Mem.Load(cur + w(qNextOff)))
	}
	if len(seen) != len(vals) {
		t.Fatalf("distinct = %d, want %d", len(seen), len(vals))
	}
}

// --- HashTable ---

func TestHashTableModel(t *testing.T) {
	m := prog.NewModule("t")
	h := DeclareHashTable(m)
	ab := abFor(m, h.FnInsert, "ht")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	ht := NewHashTable(mach, 8)
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(11))
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(50) + 1)
			v := uint64(rng.Intn(1000))
			if rng.Intn(2) == 0 {
				node := mach.Alloc.AllocLines(1)
				th.Atomic(ab, func(tc Ctx) {
					_, existed := model[k]
					if h.Insert(tc, ht, k, v, node) != !existed {
						t.Errorf("insert(%d) vs model", k)
					}
				})
				model[k] = v
			} else {
				th.Atomic(ab, func(tc Ctx) {
					got, ok := h.Lookup(tc, ht, k)
					want, wok := model[k]
					if ok != wok || (ok && got != want) {
						t.Errorf("lookup(%d) = %d,%v; want %d,%v", k, got, ok, want, wok)
					}
				})
			}
		}
	}})
	if n := HTCount(mach, ht); n != len(model) {
		t.Fatalf("count = %d, want %d", n, len(model))
	}
}

// --- BPTree ---

type intHeap []uint64

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func TestBPTreeSortsRandomKeys(t *testing.T) {
	m := prog.NewModule("t")
	bt := DeclareBPTree(m)
	ab := abFor(m, bt.FnInsert, "pq")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	tree := NewBPTree(mach)
	rng := rand.New(rand.NewSource(3))
	const n = 200
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(10000))
	}
	alloc := func(lines int) mem.Addr { return mach.Alloc.AllocLines(lines) }
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		for _, k := range keys {
			key := k
			th.Atomic(ab, func(tc Ctx) {
				bt.Insert(tc, tree, key, alloc)
			})
		}
		if cnt := BPTCount(mach, tree); cnt != n {
			t.Fatalf("count = %d, want %d", cnt, n)
		}
		var got []uint64
		for {
			var v uint64
			var ok bool
			th.Atomic(ab, func(tc Ctx) {
				v, ok = bt.PopMin(tc, tree)
			})
			if !ok {
				break
			}
			got = append(got, v)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		if len(got) != n {
			t.Fatalf("popped %d, want %d", len(got), n)
		}
		for i := range got {
			if got[i] != keys[i] {
				t.Fatalf("pop order differs at %d: got %d want %d", i, got[i], keys[i])
			}
		}
	}})
}

func TestBPTreeInterleavedHeapModel(t *testing.T) {
	m := prog.NewModule("t")
	bt := DeclareBPTree(m)
	ab := abFor(m, bt.FnInsert, "pq")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	tree := NewBPTree(mach)
	rng := rand.New(rand.NewSource(5))
	model := &intHeap{}
	heap.Init(model)
	alloc := func(lines int) mem.Addr { return mach.Alloc.AllocLines(lines) }
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		for i := 0; i < 500; i++ {
			if rng.Intn(3) != 0 || model.Len() == 0 {
				k := uint64(rng.Intn(1000))
				th.Atomic(ab, func(tc Ctx) {
					bt.Insert(tc, tree, k, alloc)
				})
				heap.Push(model, k)
			} else {
				want := heap.Pop(model).(uint64)
				th.Atomic(ab, func(tc Ctx) {
					got, ok := bt.PopMin(tc, tree)
					if !ok || got != want {
						t.Errorf("op %d: pop = %d,%v; want %d", i, got, ok, want)
					}
				})
			}
		}
	}})
	if cnt := BPTCount(mach, tree); cnt != model.Len() {
		t.Fatalf("count = %d, model = %d", cnt, model.Len())
	}
}

func TestBPTreeConcurrentPQ(t *testing.T) {
	const threads = 8
	m := prog.NewModule("t")
	bt := DeclareBPTree(m)
	ab := abFor(m, bt.FnInsert, "pq")
	mach, rt := sim(t, m, stagger.ModeStaggeredHW, threads)
	tree := NewBPTree(mach)
	// Seed with initial tasks through direct inserts before timing.
	popped := make([]int, threads)
	bodies := make([]func(*htm.Core), threads)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			al := func(lines int) mem.Addr { return mach.Alloc.AllocLines(lines) }
			for j := 0; j < 15; j++ {
				k := uint64(tid*100 + j)
				th.Atomic(ab, func(tc Ctx) {
					bt.Insert(tc, tree, k, al)
				})
			}
			for {
				var ok bool
				th.Atomic(ab, func(tc Ctx) {
					_, ok = bt.PopMin(tc, tree)
				})
				if !ok {
					break
				}
				popped[tid]++
			}
		}
	}
	mach.Run(bodies)
	total := 0
	for _, p := range popped {
		total += p
	}
	if rem := BPTCount(mach, tree); total+rem != threads*15 {
		t.Fatalf("popped %d + remaining %d != inserted %d", total, rem, threads*15)
	}
}

// --- RBTree ---

func TestRBTreeInsertLookup(t *testing.T) {
	m := prog.NewModule("t")
	rb := DeclareRBTree(m)
	ab := abFor(m, rb.FnInsert, "rb")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	tree := NewRBTree(mach.Alloc)
	rng := rand.New(rand.NewSource(9))
	model := map[uint64]uint64{}
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		for i := 0; i < 300; i++ {
			k := uint64(rng.Intn(200) + 1)
			node := mach.Alloc.AllocLines(1)
			th.Atomic(ab, func(tc Ctx) {
				_, existed := model[k]
				if rb.Insert(tc, tree, k, k*10, node) != !existed {
					t.Errorf("insert(%d) vs model", k)
				}
			})
			if _, ok := model[k]; !ok {
				model[k] = k * 10
			}
		}
		for k, v := range model {
			key, want := k, v
			th.Atomic(ab, func(tc Ctx) {
				got, ok := rb.Lookup(tc, tree, key)
				if !ok || got != want {
					t.Errorf("lookup(%d) = %d,%v; want %d", key, got, ok, want)
				}
			})
		}
	}})
	keys := RBKeys(mach, tree)
	if len(keys) != len(model) {
		t.Fatalf("tree has %d keys, model %d", len(keys), len(model))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("in-order walk not sorted: BST invariant broken")
	}
	if !RBDepthOK(mach, tree) {
		t.Fatal("red-black invariants violated")
	}
}

func TestRBTreeUpdate(t *testing.T) {
	m := prog.NewModule("t")
	rb := DeclareRBTree(m)
	ab := abFor(m, rb.FnUpdate, "rb")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	tree := NewRBTree(mach.Alloc)
	SeedRBTree(mach, tree, []uint64{1, 2, 3, 4, 5}, func(k uint64) uint64 { return 100 })
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		th.Atomic(ab, func(tc Ctx) {
			if !rb.Update(tc, tree, 3, 5) {
				t.Error("update of existing key failed")
			}
			if rb.Update(tc, tree, 99, 1) {
				t.Error("update of missing key succeeded")
			}
			if v, _ := rb.Lookup(tc, tree, 3); v != 105 {
				t.Errorf("value = %d, want 105", v)
			}
		})
	}})
}

func TestSeedRBTreeBalanced(t *testing.T) {
	mach := htm.New(htm.DefaultConfig())
	tree := NewRBTree(mach.Alloc)
	keys := make([]uint64, 63)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	SeedRBTree(mach, tree, keys, func(k uint64) uint64 { return k })
	got := RBKeys(mach, tree)
	if len(got) != 63 {
		t.Fatalf("len = %d", len(got))
	}
	if !RBDepthOK(mach, tree) {
		t.Fatal("seeded tree violates invariants")
	}
}

// --- Centers ---

func TestCentersAccumulate(t *testing.T) {
	m := prog.NewModule("t")
	cs := DeclareCenters(m, 4, 3)
	ab := abFor(m, cs.FnUpdate, "km")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	base := NewCenters(mach, cs)
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		for i := 0; i < 10; i++ {
			k := i % 4
			th.Atomic(ab, func(tc Ctx) {
				cs.Update(tc, base, k, []uint64{1, 2, 3})
			})
		}
	}})
	for k := 0; k < 4; k++ {
		wantCnt := uint64(2)
		if k < 2 {
			wantCnt = 3
		}
		if got := cs.Count(mach, base, k); got != wantCnt {
			t.Errorf("center %d count = %d, want %d", k, got, wantCnt)
		}
		if got := cs.Sum(mach, base, k, 1); got != wantCnt*2 {
			t.Errorf("center %d sum[1] = %d, want %d", k, got, wantCnt*2)
		}
	}
}

// --- Grid ---

func TestGridClaimAndConflictCheck(t *testing.T) {
	m := prog.NewModule("t")
	g := DeclareGrid(m, 8, 8, 2)
	ab := abFor(m, g.FnClaim, "route")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	base := NewGrid(mach, g)
	cells := Cells(mach, base)
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		path1 := []mem.Addr{g.CellAddr(cells, 0, 0, 0), g.CellAddr(cells, 1, 0, 0)}
		path2 := []mem.Addr{g.CellAddr(cells, 1, 0, 0), g.CellAddr(cells, 2, 0, 0)}
		th.Atomic(ab, func(tc Ctx) {
			if !g.ClaimPath(tc, base, path1, 7, 50) {
				t.Error("claim of free path failed")
			}
		})
		th.Atomic(ab, func(tc Ctx) {
			if g.ClaimPath(tc, base, path2, 8, 50) {
				t.Error("claim over occupied cell succeeded")
			}
		})
	}})
	if g.CellOwner(mach, base, 0, 0, 0) != 7 || g.CellOwner(mach, base, 1, 0, 0) != 7 {
		t.Fatal("claimed cells not owned")
	}
	if g.CellOwner(mach, base, 2, 0, 0) != 0 {
		t.Fatal("failed claim leaked a write")
	}
}

func TestGridSnapshot(t *testing.T) {
	m := prog.NewModule("t")
	g := DeclareGrid(m, 4, 4, 1)
	ab := abFor(m, g.FnClaim, "route")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	base := NewGrid(mach, g)
	cells := Cells(mach, base)
	mach.Mem.Store(g.CellAddr(cells, 2, 1, 0), 42)
	buf := make([]uint64, 16)
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		th.Atomic(ab, func(tc Ctx) {
			g.Snapshot(tc, cells, buf)
		})
	}})
	if buf[1*4+2] != 42 {
		t.Fatalf("snapshot missed cell: %v", buf)
	}
}

// --- Stats ---

func TestStatsBump(t *testing.T) {
	m := prog.NewModule("t")
	sb := DeclareStats(m)
	ab := abFor(m, sb.FnBump, "stats")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	stats := NewStats(mach.Alloc)
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		for i := 0; i < 5; i++ {
			th.Atomic(ab, func(tc Ctx) {
				sb.Bump(tc, stats, 2, 3)
			})
		}
	}})
	if got := Counter(mach.Mem, stats, 2); got != 15 {
		t.Fatalf("counter = %d, want 15", got)
	}
}
