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

// list-lo and list-hi: the RSTM IntSet microbenchmark. A set of threads
// search and update one shared sorted list of ~64 nodes. list-lo runs
// 90/5/5 lookup/insert/delete; list-hi runs 60/20/20 and is the paper's
// worst scaler (S = 1.0 at 16 threads). Conflicting addresses vary from
// instance to instance (cells all over the heap) while the conflicting
// PCs are stable — the pattern that needs coarse-grain locking and
// promotion rather than address-based prediction.

const listNodes = 128

func init() {
	register("list-lo", 3200, func() *Workload { return buildList("list-lo", 90, 5) })
	register("list-hi", 3200, func() *Workload { return buildList("list-hi", 60, 20) })
}

func buildList(name string, lookupPct, insertPct int) *Workload {
	mod := prog.NewModule(name)
	l := simds.DeclareSortedList(mod)
	// The shared list is a module global bound into every atomic block's
	// root call, as the four blocks share `list` at run time.
	gList := mod.Global("list")
	abLookup := atomicWrap(mod, "lookup", l.FnLookup, gList)
	abInsert := atomicWrap(mod, "insert", l.FnInsert, gList)
	abDelete := atomicWrap(mod, "delete", l.FnDelete, gList)
	abSize := atomicWrap(mod, "contains_all", l.FnLookup, gList)
	mod.MustFinalize()

	var list mem.Addr
	return &Workload{
		Name: name,
		Description: fmt.Sprintf("%d nodes, %d%%/%d%%/%d%% lookup/insert/delete",
			listNodes, lookupPct, insertPct, 100-lookupPct-insertPct),
		Contention: map[string]string{"list-lo": "med", "list-hi": "high"}[name],
		Mod:        mod,
		Setup: func(m *htm.Machine, seed int64) {
			list = simds.NewList(m.Alloc)
			keys := make([]uint64, 0, listNodes)
			for k := uint64(2); len(keys) < listNodes; k += 4 {
				keys = append(keys, k)
			}
			simds.SeedList(m, list, keys)
		},
		Body: func(rt backend.Runtime, tid, threads, ops int, seed int64) func(*htm.Core) {
			rng := threadRNG(seed, tid)
			return func(c *htm.Core) {
				th := rt.Thread(c.ID())
				// Per-thread node pool (Lockless-allocator stand-in):
				// nodes pack four to a line within one thread's pool.
				pool := mem.NewAllocator(c.Machine().Alloc.AllocLines(ops/2+2), uint64(ops/2+2)*64)
				// Hoisted body closures: see kmeans for why in-loop
				// literals cost one heap allocation per op.
				var k uint64
				var node mem.Addr
				lookupBody := func(tc simds.Ctx) {
					found := l.Lookup(tc, list, k)
					tc.Op(listOp{kind: listLookup, key: k, result: found})
				}
				insertBody := func(tc simds.Ctx) {
					ins := l.Insert(tc, list, k, node)
					tc.Op(listOp{kind: listInsert, key: k, result: ins})
				}
				deleteBody := func(tc simds.Ctx) {
					del := l.Delete(tc, list, k)
					tc.Op(listOp{kind: listDelete, key: k, result: del})
				}
				scanBody := func(tc simds.Ctx) {
					found := l.Lookup(tc, list, uint64(4*listNodes))
					tc.Op(listOp{kind: listLookup, key: uint64(4 * listNodes), result: found})
				}
				for i := 0; i < ops; i++ {
					k = uint64(rng.Intn(2*listNodes))*2 + 2
					r := rng.Intn(100)
					switch {
					case r < lookupPct:
						th.Atomic(abLookup, lookupBody)
					case r < lookupPct+insertPct:
						node = pool.AllocObject(2)
						th.Atomic(abInsert, insertBody)
					default:
						th.Atomic(abDelete, deleteBody)
					}
					c.Compute(10) // non-transactional think time
					if i%64 == 63 {
						// Occasional longer read-only scan (4th atomic block).
						th.Atomic(abSize, scanBody)
					}
				}
			}
		},
		Verify: func(m *htm.Machine, threads, totalOps int) error {
			keys := simds.Keys(m, list)
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					return fmt.Errorf("list unsorted at %d: %d >= %d", i, keys[i-1], keys[i])
				}
			}
			for _, k := range keys {
				if k%2 != 0 {
					return fmt.Errorf("odd key %d leaked into list", k)
				}
			}
			return nil
		},
		RefModel: func(m *htm.Machine, seed int64) oracle.RefModel {
			set := make(map[uint64]bool, listNodes)
			for k := uint64(2); len(set) < listNodes; k += 4 {
				set[k] = true
			}
			return &listModel{m: m, list: list, set: set}
		},
	}
}

// listOp tags one committed IntSet operation with its observed result.
type listOp struct {
	kind   uint8
	key    uint64
	result bool
}

const (
	listLookup uint8 = iota
	listInsert
	listDelete
)

// listModel is the sequential IntSet: a plain Go set stepped in commit
// order; every committed result must match what the sequential set says.
type listModel struct {
	m    *htm.Machine
	list mem.Addr
	set  map[uint64]bool
}

func (md *listModel) Step(tag any) error {
	op, ok := tag.(listOp)
	if !ok {
		return fmt.Errorf("list: unexpected tag %T", tag)
	}
	present := md.set[op.key]
	switch op.kind {
	case listLookup:
		if op.result != present {
			return fmt.Errorf("lookup(%d) = %v, sequential set says %v", op.key, op.result, present)
		}
	case listInsert:
		if op.result != !present {
			return fmt.Errorf("insert(%d) = %v, sequential set says %v", op.key, op.result, !present)
		}
		md.set[op.key] = true
	case listDelete:
		if op.result != present {
			return fmt.Errorf("delete(%d) = %v, sequential set says %v", op.key, op.result, present)
		}
		delete(md.set, op.key)
	}
	return nil
}

// Finish compares the final list contents against the model set.
func (md *listModel) Finish() error {
	keys := simds.Keys(md.m, md.list)
	if len(keys) != len(md.set) {
		return fmt.Errorf("final list has %d keys, model has %d", len(keys), len(md.set))
	}
	for _, k := range keys {
		if !md.set[k] {
			return fmt.Errorf("final list holds key %d the model does not", k)
		}
	}
	return nil
}

// atomicWrap declares an atomic block that calls fn (the usual
// "TM_BEGIN; call; TM_END" shape). fn's first parameter — the shared
// structure pointer — binds to the module global the runtime passes;
// remaining parameters bind to the root's own (thread-private) params.
func atomicWrap(mod *prog.Module, name string, fn *prog.Func, structPtr *prog.Value) *prog.AtomicBlock {
	root := mod.NewFunc("ab_"+name, "a0", "a1")
	args := make([]*prog.Value, len(fn.Params))
	for i := range args {
		if i == 0 {
			args[i] = structPtr
		} else {
			args[i] = root.Param(i % 2)
		}
	}
	root.Entry().Call(fn, args...)
	return mod.Atomic(name, root)
}
