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

// ssca2: the SSCA2 graph kernel — concurrent construction of adjacency
// arrays. Each transaction appends one directed edge to a node's bounded
// adjacency record. With thousands of nodes and tiny transactions,
// conflicts are rare (Table 4: 0.02 aborts/commit, "low") and most time
// is spent outside transactions (%TM = 16%): ssca2 is the paper's
// guard benchmark showing staggered transactions add no overhead when
// there is nothing to fix.

const (
	ssNodes   = 2048
	ssEdgeCap = 6 // per-node adjacency capacity (1 line per node)
)

func init() { register("ssca2", 4096, buildSSCA2) }

func buildSSCA2() *Workload {
	mod := prog.NewModule("ssca2")
	f := mod.NewFunc("add_edge", "nodePtr")
	sCnt := f.Entry().Load(f.Param(0), "count")
	sEdge := f.Entry().Store(f.Param(0), "edge")
	sStore := f.Entry().Store(f.Param(0), "count")
	root := mod.NewFunc("ab_add_edge", "graphPtr")
	root.Entry().Call(f, root.Param(0))
	ab := mod.Atomic("add_edge", root)
	mod.MustFinalize()

	var base mem.Addr
	nodeAddr := func(i int) mem.Addr { return base + mem.Addr(i*64) }
	return &Workload{
		Name:        "ssca2",
		Description: fmt.Sprintf("graph construction: %d nodes, bounded adjacency", ssNodes),
		Contention:  "low",
		Mod:         mod,
		Setup: func(m *htm.Machine, seed int64) {
			base = m.Alloc.AllocLines(ssNodes)
		},
		Body: func(rt backend.Runtime, tid, threads, ops int, seed int64) func(*htm.Core) {
			rng := threadRNG(seed, tid)
			return func(c *htm.Core) {
				th := rt.Thread(c.ID())
				// Hoisted body closure: see kmeans for why in-loop
				// literals cost one heap allocation per op.
				var u int
				var v uint64
				var na mem.Addr
				body := func(tc simds.Ctx) {
					cnt := tc.Load(sCnt, na)
					if cnt < ssEdgeCap {
						tc.Store(sEdge, na+mem.Addr(8*(1+cnt)), v)
						tc.Store(sStore, na, cnt+1)
					}
					tc.Op(ssOp{node: u, val: v, cnt: cnt})
				}
				for i := 0; i < ops; i++ {
					u = rng.Intn(ssNodes)
					v = uint64(rng.Intn(ssNodes))
					// Edge generation and permutation work happen outside
					// the transaction (%TM stays low).
					c.Compute(1500)
					na = nodeAddr(u)
					th.Atomic(ab, body)
				}
			}
		},
		Verify: func(m *htm.Machine, threads, totalOps int) error {
			var total uint64
			for i := 0; i < ssNodes; i++ {
				cnt := m.Mem.Load(nodeAddr(i))
				if cnt > ssEdgeCap {
					return fmt.Errorf("node %d overflowed: %d", i, cnt)
				}
				total += cnt
			}
			if total == 0 {
				return fmt.Errorf("no edges added")
			}
			return nil
		},
		RefModel: func(m *htm.Machine, seed int64) oracle.RefModel {
			return &ssModel{m: m, nodeAddr: nodeAddr, edges: make([][]uint64, ssNodes)}
		},
	}
}

// ssOp tags one committed add_edge attempt: cnt is the adjacency count
// the transaction observed (cnt >= ssEdgeCap means it dropped the edge).
type ssOp struct {
	node int
	val  uint64
	cnt  uint64
}

// ssModel replays edge appends sequentially; each committed transaction
// must have observed exactly the count the commit-order prefix produced.
type ssModel struct {
	m        *htm.Machine
	nodeAddr func(int) mem.Addr
	edges    [][]uint64
}

func (md *ssModel) Step(tag any) error {
	op, ok := tag.(ssOp)
	if !ok {
		return fmt.Errorf("ssca2: unexpected tag %T", tag)
	}
	if op.node < 0 || op.node >= ssNodes {
		return fmt.Errorf("ssca2: node %d out of range", op.node)
	}
	if got := uint64(len(md.edges[op.node])); got != op.cnt {
		return fmt.Errorf("add_edge(%d) observed count %d, sequential model says %d",
			op.node, op.cnt, got)
	}
	if op.cnt < ssEdgeCap {
		md.edges[op.node] = append(md.edges[op.node], op.val)
	}
	return nil
}

func (md *ssModel) Finish() error {
	for i := 0; i < ssNodes; i++ {
		na := md.nodeAddr(i)
		if got, want := md.m.Mem.Load(na), uint64(len(md.edges[i])); got != want {
			return fmt.Errorf("node %d final count = %d, sequential model says %d", i, got, want)
		}
		for j, v := range md.edges[i] {
			if got := md.m.Mem.Load(na + mem.Addr(8*(1+j))); got != v {
				return fmt.Errorf("node %d edge %d = %d, sequential model says %d", i, j, got, v)
			}
		}
	}
	return nil
}
