package workloads

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/simds"
)

// genome: STAMP's gene sequencer, phase 1 — deduplicating DNA segments
// into a fixed-size hash table whose overloaded buckets are linked lists
// (the atomic block of Figure 3 in the paper). Conflict chains form when
// several transactions insert into overlapping bucket sets; staggered
// transactions break them by locking promotion up to the whole table.

const (
	genSegments = 2048
	genDistinct = 512
	genBuckets  = 256 // lightly loaded: ~2 entries per chain
	genChunk    = 4   // segments inserted per transaction (Figure 3 loop)
)

// One op inserts one chunk of segments.
func init() { register("genome", genSegments/genChunk, buildGenome) }

func buildGenome() *Workload {
	mod := prog.NewModule("genome")
	ht := simds.DeclareHashTable(mod)

	// The Figure 3 atomic block: a loop inserting a chunk of segments.
	root := mod.NewFunc("insert_segments", "uniqueSegmentsPtr", "segment")
	entry, loop, exit := root.Entry(), root.NewBlock("loop"), root.NewBlock("exit")
	entry.To(loop)
	loop.To(loop, exit)
	loop.Call(ht.FnInsert, root.Param(0), root.Param(1))
	ab := mod.Atomic("insert_segments", root)
	mod.MustFinalize()

	var table mem.Addr
	return &Workload{
		Name:        "genome",
		Description: fmt.Sprintf("segment dedup: %d segments, %d buckets", genSegments, genBuckets),
		Contention:  "low",
		Mod:         mod,
		Setup: func(m *htm.Machine, seed int64) {
			table = simds.NewHashTable(m, genBuckets)
		},
		Body: func(rt backend.Runtime, tid, threads, ops int, seed int64) func(*htm.Core) {
			rng := threadRNG(seed, tid)
			return func(c *htm.Core) {
				th := rt.Thread(c.ID())
				al := c.Machine().Alloc
				// Hoisted body closure: see kmeans for why in-loop
				// literals cost one heap allocation per op.
				var segs []uint64
				var nodes []mem.Addr
				var inserted []bool
				body := func(tc simds.Ctx) {
					for j, s := range segs {
						inserted[j] = ht.Insert(tc, table, s, s, nodes[j])
						tc.Compute(30)
					}
					tc.Op(genOp{segs: segs, inserted: inserted})
				}
				for i := 0; i < ops; i++ {
					segs = make([]uint64, genChunk)
					nodes = make([]mem.Addr, genChunk)
					for j := range segs {
						segs[j] = uint64(rng.Intn(genDistinct) + 1)
						nodes[j] = al.AllocLines(1)
					}
					inserted = make([]bool, genChunk)
					th.Atomic(ab, body)
					c.Compute(1200) // segment extraction outside the tx
				}
			}
		},
		Verify: func(m *htm.Machine, threads, totalOps int) error {
			n := simds.HTCount(m, table)
			if n == 0 || n > genDistinct {
				return fmt.Errorf("table has %d entries, want 1..%d distinct", n, genDistinct)
			}
			return nil
		},
		RefModel: func(m *htm.Machine, seed int64) oracle.RefModel {
			return &genModel{m: m, ht: ht, table: table, set: make(map[uint64]bool, genDistinct)}
		},
	}
}

// genOp tags one committed chunk insert: inserted[j] reports whether
// segs[j] was new to the table at this transaction's serialization point.
// A duplicate segment *within* one chunk must report inserted=false for
// its second occurrence — the sequential model checks per element.
type genOp struct {
	segs     []uint64
	inserted []bool
}

// genModel is the sequential dedup set.
type genModel struct {
	m     *htm.Machine
	ht    *simds.HashTable
	table mem.Addr
	set   map[uint64]bool
}

func (md *genModel) Step(tag any) error {
	op, ok := tag.(genOp)
	if !ok {
		return fmt.Errorf("genome: unexpected tag %T", tag)
	}
	if len(op.segs) != len(op.inserted) {
		return fmt.Errorf("genome: malformed tag: %d segments, %d results", len(op.segs), len(op.inserted))
	}
	for j, s := range op.segs {
		if present := md.set[s]; op.inserted[j] != !present {
			return fmt.Errorf("insert(%d) = %v, sequential set says %v", s, op.inserted[j], !present)
		}
		md.set[s] = true
	}
	return nil
}

func (md *genModel) Finish() error {
	if n := simds.HTCount(md.m, md.table); n != len(md.set) {
		return fmt.Errorf("final table has %d segments, model has %d", n, len(md.set))
	}
	// Sorted, so a multi-segment divergence always names the same one.
	for _, s := range slices.Sorted(maps.Keys(md.set)) {
		if got, _ := md.ht.Lookup(simds.Direct(md.m), md.table, s); got != s {
			return fmt.Errorf("final table[%d] = %d, model expects the key itself", s, got)
		}
	}
	return nil
}
