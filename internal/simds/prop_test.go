package simds

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/stagger"
)

// TestBPTreeLargeRandomProperty: thousands of interleaved inserts and
// pops against a sorted-multiset model, across several seeds, checking
// pop order, counts, and structural sanity.
func TestBPTreeLargeRandomProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run("", func(t *testing.T) {
			m := prog.NewModule("t")
			bt := DeclareBPTree(m)
			ab := abFor(m, bt.FnInsert, "pq")
			mach, rt := sim(t, m, stagger.ModeHTM, 1)
			tree := NewBPTree(mach)
			rng := rand.New(rand.NewSource(seed))
			var model []uint64 // kept sorted
			alloc := func(lines int) mem.Addr { return mach.Alloc.AllocLines(lines) }
			mach.Run([]func(*htm.Core){func(c *htm.Core) {
				th := rt.Thread(0)
				for i := 0; i < 3000; i++ {
					if rng.Intn(5) < 3 || len(model) == 0 {
						k := uint64(rng.Intn(1 << 20))
						th.Atomic(ab, func(tc Ctx) {
							bt.Insert(tc, tree, k, alloc)
						})
						pos := sort.Search(len(model), func(j int) bool { return model[j] > k })
						model = append(model, 0)
						copy(model[pos+1:], model[pos:])
						model[pos] = k
					} else {
						want := model[0]
						model = model[1:]
						th.Atomic(ab, func(tc Ctx) {
							got, ok := bt.PopMin(tc, tree)
							if !ok || got != want {
								t.Fatalf("op %d: pop = %d,%v; want %d", i, got, ok, want)
							}
						})
					}
				}
			}})
			if got := BPTCount(mach, tree); got != len(model) {
				t.Fatalf("count = %d, model = %d", got, len(model))
			}
		})
	}
}

// TestRBTreeLargeRandomProperty: thousands of inserts/updates/lookups
// with invariant checks at the end.
func TestRBTreeLargeRandomProperty(t *testing.T) {
	m := prog.NewModule("t")
	rb := DeclareRBTree(m)
	ab := abFor(m, rb.FnInsert, "rb")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	tree := NewRBTree(mach.Alloc)
	rng := rand.New(rand.NewSource(17))
	model := map[uint64]uint64{}
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		for i := 0; i < 4000; i++ {
			k := uint64(rng.Intn(1500) + 1)
			switch rng.Intn(3) {
			case 0:
				node := mach.Alloc.AllocLines(1)
				th.Atomic(ab, func(tc Ctx) {
					rb.Insert(tc, tree, k, k, node)
				})
				if _, ok := model[k]; !ok {
					model[k] = k
				}
			case 1:
				th.Atomic(ab, func(tc Ctx) {
					_, existed := model[k]
					if rb.Update(tc, tree, k, 1) != existed {
						t.Fatalf("update(%d) vs model", k)
					}
				})
				if _, ok := model[k]; ok {
					model[k]++
				}
			default:
				th.Atomic(ab, func(tc Ctx) {
					got, ok := rb.Lookup(tc, tree, k)
					want, wok := model[k]
					if ok != wok || got != want {
						t.Fatalf("lookup(%d) = %d,%v; want %d,%v", k, got, ok, want, wok)
					}
				})
			}
		}
	}})
	keys := RBKeys(mach, tree)
	if len(keys) != len(model) {
		t.Fatalf("size %d vs model %d", len(keys), len(model))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("BST order violated")
	}
	if !RBDepthOK(mach, tree) {
		t.Fatal("red-black invariants violated")
	}
	// A valid red-black tree of n nodes has height <= 2*log2(n+1); probe
	// via the deepest path.
	depth := rbMaxDepth(mach, tree)
	n := len(keys)
	bound := 2
	for m := 1; m < n+1; m *= 2 {
		bound += 2
	}
	if depth > bound {
		t.Fatalf("depth %d exceeds red-black bound %d for %d nodes", depth, bound, n)
	}
}

func rbMaxDepth(m *htm.Machine, tree mem.Addr) int {
	var walk func(n mem.Addr) int
	walk = func(n mem.Addr) int {
		if n == nilPtr {
			return 0
		}
		l := walk(mem.Addr(m.Mem.Load(n + w(rbLeftOff))))
		r := walk(mem.Addr(m.Mem.Load(n + w(rbRightOff))))
		if r > l {
			l = r
		}
		return l + 1
	}
	return walk(mem.Addr(m.Mem.Load(tree + w(rbRootOff))))
}

// TestHashTableManyKeysProperty: a few thousand operations against a map
// model, exercising long chains.
func TestHashTableManyKeysProperty(t *testing.T) {
	m := prog.NewModule("t")
	h := DeclareHashTable(m)
	ab := abFor(m, h.FnInsert, "ht")
	mach, rt := sim(t, m, stagger.ModeHTM, 1)
	ht := NewHashTable(mach, 16) // overloaded: long chains
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(23))
	mach.Run([]func(*htm.Core){func(c *htm.Core) {
		th := rt.Thread(0)
		for i := 0; i < 2500; i++ {
			k := uint64(rng.Intn(400) + 1)
			v := uint64(rng.Intn(1 << 30))
			if rng.Intn(3) > 0 {
				node := mach.Alloc.AllocLines(1)
				th.Atomic(ab, func(tc Ctx) {
					h.Insert(tc, ht, k, v, node)
				})
				model[k] = v
			} else {
				th.Atomic(ab, func(tc Ctx) {
					got, ok := h.Lookup(tc, ht, k)
					want, wok := model[k]
					if ok != wok || (ok && got != want) {
						t.Fatalf("lookup(%d) mismatch", k)
					}
				})
			}
		}
	}})
	if got := HTCount(mach, ht); got != len(model) {
		t.Fatalf("count %d vs model %d", got, len(model))
	}
}

// TestListConcurrentMixedWorkloadLinearizable: under heavy concurrent
// insert/delete churn, the final list must be sorted, duplicate-free and
// contain exactly the keys that a per-key quiescent analysis allows.
func TestListConcurrentMixedWorkloadLinearizable(t *testing.T) {
	const threads = 8
	m := prog.NewModule("t")
	l := DeclareSortedList(m)
	abI := abFor(m, l.FnInsert, "ins")
	abD := abFor(m, l.FnDelete, "del")
	mach, rt := sim(t, m, stagger.ModeStaggeredHW, threads)
	list := NewList(mach.Alloc)
	SeedList(mach, list, []uint64{1})
	// Each thread owns a disjoint key range and performs insert/delete
	// pairs; at the end each key's presence is determined by its op count
	// parity, giving an exact expected set despite concurrency.
	const perThread = 30
	bodies := make([]func(*htm.Core), threads)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			for k := 0; k < perThread; k++ {
				key := uint64(100 + tid*100 + k)
				node := mach.Alloc.AllocObject(2)
				th.Atomic(abI, func(tc Ctx) {
					l.Insert(tc, list, key, node)
				})
				if k%3 == 0 {
					th.Atomic(abD, func(tc Ctx) {
						l.Delete(tc, list, key)
					})
				}
			}
		}
	}
	mach.Run(bodies)
	got := Keys(mach, list)
	want := map[uint64]bool{1: true}
	for tid := 0; tid < threads; tid++ {
		for k := 0; k < perThread; k++ {
			key := uint64(100 + tid*100 + k)
			want[key] = k%3 != 0
		}
	}
	present := map[uint64]bool{}
	for i, k := range got {
		if i > 0 && got[i-1] >= k {
			t.Fatalf("unsorted/duplicate at %d: %v", i, got[max(0, i-2):i+1])
		}
		present[k] = true
	}
	for k, w := range want {
		if present[k] != w {
			t.Fatalf("key %d: present=%v want %v", k, present[k], w)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestQueuePushPopPairsConcurrent: producer/consumer pairs across
// threads conserve every element exactly once.
func TestQueuePushPopPairsConcurrent(t *testing.T) {
	const threads = 8
	m := prog.NewModule("t")
	q := DeclareQueue(m)
	ab := abFor(m, q.FnPush, "q")
	mach, rt := sim(t, m, stagger.ModeStaggeredHW, threads)
	qa := NewQueue(mach.Alloc)
	consumed := make([]map[uint64]int, threads)
	bodies := make([]func(*htm.Core), threads)
	for i := range bodies {
		tid := i
		consumed[tid] = map[uint64]int{}
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			for k := 0; k < 25; k++ {
				node := mach.Alloc.AllocLines(1)
				v := uint64(tid*1000 + k)
				th.Atomic(ab, func(tc Ctx) {
					q.Push(tc, qa, v, node)
				})
				// The body may re-execute on abort, so record the popped
				// value only after the transaction has committed.
				var got uint64
				var ok bool
				th.Atomic(ab, func(tc Ctx) {
					got, ok = q.Pop(tc, qa)
				})
				if ok {
					consumed[tid][got]++
				}
				c.Compute(100)
			}
		}
	}
	mach.Run(bodies)
	total := map[uint64]int{}
	for _, mcons := range consumed {
		for v, n := range mcons {
			total[v] += n
		}
	}
	// Drain the rest.
	cur := mem.Addr(mach.Mem.Load(qa + w(qHeadOff)))
	for cur != nilPtr {
		total[mach.Mem.Load(cur+w(qValOff))]++
		cur = mem.Addr(mach.Mem.Load(cur + w(qNextOff)))
	}
	if len(total) != threads*25 {
		t.Fatalf("distinct values = %d, want %d", len(total), threads*25)
	}
	for v, n := range total {
		if n != 1 {
			t.Fatalf("value %d seen %d times", v, n)
		}
	}
}
