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

// kmeans: STAMP's clustering kernel. Threads assign points to their
// nearest center (compute outside the transaction, as STAMP does — the
// centers are read-only within an iteration) and transactionally fold
// the point into the chosen cluster's accumulator array. Conflicting
// addresses and PCs both have good locality (Table 1), so precise-mode
// advisory locks give near-fine-grain per-cluster serialization
// (Section 6.2's kmeans discussion).

const (
	kmClusters = 8
	kmDims     = 14
	kmPoints   = 2048
)

func init() { register("kmeans", kmPoints, buildKmeans) }

func buildKmeans() *Workload {
	mod := prog.NewModule("kmeans")
	cs := simds.DeclareCenters(mod, kmClusters, kmDims)
	root := mod.NewFunc("assign_point", "centerPtr")
	root.Entry().Call(cs.FnUpdate, root.Param(0))
	ab := mod.Atomic("assign_point", root)
	mod.MustFinalize()

	var base mem.Addr
	return &Workload{
		Name:        "kmeans",
		Description: fmt.Sprintf("n=%d d=%d c=%d accumulator updates", kmPoints, kmDims, kmClusters),
		Contention:  "high",
		Mod:         mod,
		Setup: func(m *htm.Machine, seed int64) {
			base = simds.NewCenters(m, cs)
		},
		Body: func(rt backend.Runtime, tid, threads, ops int, seed int64) func(*htm.Core) {
			rng := threadRNG(seed, tid)
			return func(c *htm.Core) {
				th := rt.Thread(c.ID())
				point := make([]uint64, kmDims)
				// The body closure is hoisted out of the op loop and fed
				// per-iteration state through captured variables: calls
				// through the backend.Thread interface heap-allocate any
				// closure argument, so an in-loop literal would cost one
				// allocation per operation (same pattern in every workload).
				var k int
				body := func(tc simds.Ctx) {
					cs.Update(tc, base, k, point)
					tc.Op(kmOp{k: k, point: point})
				}
				for i := 0; i < ops; i++ {
					for d := range point {
						point[d] = uint64(rng.Intn(100))
					}
					// Nearest-center search: reads of stable centers,
					// modeled as compute (STAMP keeps it outside the tx).
					c.Compute(60 * kmDims)
					// Real cluster sizes are skewed; popular clusters are
					// where the paper's kmeans contention comes from.
					k = skewedCluster(rng.Intn(100))
					th.Atomic(ab, body)
				}
			}
		},
		Verify: func(m *htm.Machine, threads, totalOps int) error {
			var total uint64
			for k := 0; k < kmClusters; k++ {
				total += cs.Count(m, base, k)
			}
			if total != uint64(totalOps) {
				return fmt.Errorf("membership total = %d, want %d", total, totalOps)
			}
			return nil
		},
		RefModel: func(m *htm.Machine, seed int64) oracle.RefModel {
			return &kmModel{m: m, cs: cs, base: base}
		},
	}
}

// kmOp tags one committed accumulator update. point is the body's own
// slice, rewritten by the next operation: every backend hands the tag to
// the oracle at the instance's serialization point, inside Atomic, so it
// is read before that happens.
type kmOp struct {
	k     int
	point []uint64
}

// kmModel re-accumulates the cluster sums sequentially in commit order;
// Finish demands the real accumulators match word for word, which a lost
// update (e.g. two transactions folding over the same count) would break.
type kmModel struct {
	m     *htm.Machine
	cs    *simds.Centers
	base  mem.Addr
	count [kmClusters]uint64
	sums  [kmClusters][kmDims]uint64
}

func (md *kmModel) Step(tag any) error {
	op, ok := tag.(kmOp)
	if !ok {
		return fmt.Errorf("kmeans: unexpected tag %T", tag)
	}
	if op.k < 0 || op.k >= kmClusters || len(op.point) != kmDims {
		return fmt.Errorf("kmeans: malformed update tag %+v", op)
	}
	md.count[op.k]++
	for d, v := range op.point {
		md.sums[op.k][d] += v
	}
	return nil
}

func (md *kmModel) Finish() error {
	for k := 0; k < kmClusters; k++ {
		if got := md.cs.Count(md.m, md.base, k); got != md.count[k] {
			return fmt.Errorf("cluster %d count = %d, sequential model says %d", k, got, md.count[k])
		}
		for d := 0; d < kmDims; d++ {
			if got := md.cs.Sum(md.m, md.base, k, d); got != md.sums[k][d] {
				return fmt.Errorf("cluster %d dim %d sum = %d, sequential model says %d",
					k, d, got, md.sums[k][d])
			}
		}
	}
	return nil
}

// skewedCluster maps a uniform percentile to a cluster with a skewed
// (roughly geometric) popularity distribution.
func skewedCluster(p int) int {
	cut := [kmClusters]int{40, 65, 80, 88, 93, 96, 98, 100}
	for k, c := range cut {
		if p < c {
			return k
		}
	}
	return kmClusters - 1
}
