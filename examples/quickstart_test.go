// Package examples_test holds the runnable walkthroughs as testable
// examples: `go test ./examples` runs them and compares their output,
// so a walkthrough cannot drift from the code it demonstrates.
package examples_test

import (
	"fmt"

	"repro/internal/htm"
)

// Quickstart: run hardware transactions on the simulated machine.
//
// Four simulated threads transfer money between two accounts atomically.
// The example uses the raw HTM layer only — no compiler pass, no advisory
// locks — and shows the simulator's determinism: every run prints the
// same cycle counts, which is what lets them be the expected output.
func Example_quickstart() {
	cfg := htm.DefaultConfig()
	cfg.Cores = 4
	m := htm.New(cfg)

	// Two accounts on separate cache lines, 1000 units each.
	alice := m.Alloc.AllocLines(1)
	bob := m.Alloc.AllocLines(1)
	m.Mem.Store(alice, 1000)
	m.Mem.Store(bob, 1000)

	const transfersPerThread = 50
	bodies := make([]func(*htm.Core), cfg.Cores)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *htm.Core) {
			for k := 0; k < transfersPerThread; k++ {
				// Alternate direction per thread so the accounts stay
				// contended in both directions.
				from, to := alice, bob
				if (tid+k)%2 == 0 {
					from, to = bob, alice
				}
				c.Atomic(htm.DefaultAtomicOpts(), htm.TxHooks{}, func(c *htm.Core) {
					// Sites 1 and 2 at synthetic PCs: the raw layer just
					// needs a PC and site ID per static access.
					bal := c.Load(0x100, 1, from)
					c.Compute(50) // fee computation
					c.Store(0x104, 2, from, bal-10)
					bal = c.Load(0x108, 3, to)
					c.Store(0x10C, 4, to, bal+10)
				})
				c.Compute(200) // think time between transfers
			}
		}
	}
	m.Run(bodies)

	s := m.Stats()
	total := m.Mem.Load(alice) + m.Mem.Load(bob)
	fmt.Printf("alice=%d bob=%d (total %d, must be 2000)\n",
		m.Mem.Load(alice), m.Mem.Load(bob), total)
	fmt.Printf("commits=%d aborts=%d (%.2f per commit) irrevocable=%d\n",
		s.Commits, s.TotalAborts(), s.AbortsPerCommit(), s.IrrevocableCommits)
	fmt.Printf("makespan=%d cycles, wasted/useful = %.2f\n",
		s.Makespan, s.WastedOverUseful())
	if total != 2000 {
		panic("atomicity violated")
	}
	// Output:
	// alice=1000 bob=1000 (total 2000, must be 2000)
	// commits=200 aborts=188 (0.94 per commit) irrevocable=7
	// makespan=23195 cycles, wasted/useful = 0.84
}
