package examples_test

import (
	"fmt"
	"math/rand"

	"repro/internal/anchor"
	"repro/internal/htm"
	"repro/internal/prog"
	"repro/internal/simds"
	"repro/internal/stagger"
)

const (
	threads = 16
	opsEach = 200
	nodes   = 128
)

// runListset runs the contended sorted-list workload under one system.
func runListset(mode stagger.Mode) (htm.Stats, stagger.Metrics) {
	// Static program: the list's shared code plus one atomic block per
	// operation type.
	mod := prog.NewModule("listset")
	list := simds.DeclareSortedList(mod)
	wrap := func(name string, fn *prog.Func) *prog.AtomicBlock {
		root := mod.NewFunc("ab_"+name, "list", "node")
		args := make([]*prog.Value, len(fn.Params))
		for i := range args {
			args[i] = root.Param(i % 2)
		}
		root.Entry().Call(fn, args...)
		return mod.Atomic(name, root)
	}
	abLookup := wrap("lookup", list.FnLookup)
	abInsert := wrap("insert", list.FnInsert)
	abDelete := wrap("delete", list.FnDelete)
	mod.MustFinalize()

	// Compile: Data Structure Analysis, Algorithm 1, unified tables.
	comp := anchor.Compile(mod, anchor.DefaultOptions())

	// Machine + runtime.
	cfg := htm.DefaultConfig()
	cfg.Cores = threads
	cfg.HardwareCPC = mode == stagger.ModeStaggeredHW
	m := htm.New(cfg)
	rt := stagger.New(m, comp, stagger.DefaultConfig(mode))

	// Seed the shared list.
	la := simds.NewList(m.Alloc)
	keys := make([]uint64, nodes)
	for i := range keys {
		keys[i] = uint64(i*4 + 2)
	}
	simds.SeedList(m, la, keys)

	bodies := make([]func(*htm.Core), threads)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *htm.Core) {
			th := rt.Thread(c.ID())
			rng := rand.New(rand.NewSource(int64(tid)*7919 + 5))
			for k := 0; k < opsEach; k++ {
				key := uint64(rng.Intn(2*nodes))*2 + 2
				switch r := rng.Intn(100); {
				case r < 60:
					th.Atomic(abLookup, func(tc simds.Ctx) {
						list.Lookup(tc, la, key)
					})
				case r < 80:
					node := c.Machine().Alloc.AllocObject(2)
					th.Atomic(abInsert, func(tc simds.Ctx) {
						list.Insert(tc, la, key, node)
					})
				default:
					th.Atomic(abDelete, func(tc simds.Ctx) {
						list.Delete(tc, la, key)
					})
				}
				c.Compute(10)
			}
		}
	}
	m.Run(bodies)
	return m.Stats(), rt.Metrics
}

// Listset: the full staggered-transactions pipeline on a sorted list.
//
// The example declares the list's static program in the IR, runs the
// compiler pass (DSA + anchor selection + ALP insertion), then executes
// the same contended workload twice — once on the plain HTM baseline and
// once with staggered transactions — and prints the abort reduction the
// advisory locks achieve.
func Example_listset() {
	base, _ := runListset(stagger.ModeHTM)
	stag, met := runListset(stagger.ModeStaggeredHW)
	fmt.Printf("%-12s %10s %12s %10s\n", "system", "makespan", "aborts/commit", "locks")
	fmt.Printf("%-12s %10d %12.2f %10s\n", "HTM", base.Makespan, base.AbortsPerCommit(), "-")
	fmt.Printf("%-12s %10d %12.2f %10d\n", "Staggered", stag.Makespan, stag.AbortsPerCommit(), met.LocksAcquired)
	fmt.Printf("\nabort reduction: %.0f%%   speedup over baseline: %.2fx\n",
		100*(1-stag.AbortsPerCommit()/base.AbortsPerCommit()),
		float64(base.Makespan)/float64(stag.Makespan))
	fmt.Printf("policy: precise=%d coarse=%d promote=%d (training=%d)\n",
		met.ActPrecise, met.ActCoarse, met.ActPromote, met.ActTraining)
	// Output:
	// system         makespan aborts/commit      locks
	// HTM              824674         2.54          -
	// Staggered        620062         0.95        767
	//
	// abort reduction: 63%   speedup over baseline: 1.33x
	// policy: precise=9 coarse=301 promote=162 (training=2388)
}
