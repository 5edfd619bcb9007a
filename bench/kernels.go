package main

import (
	"time"

	"repro/internal/htm"
	"repro/internal/mem"
)

// The peel kernels price one layer of the simulator at a time by driving
// htm's public Machine/Core API with the smallest program that exercises
// that layer and nothing above it. Each returns host nanoseconds per
// simulated event (or per commit); smoke divides every size by ~20.

func kernelMachine(cores int) *htm.Machine {
	cfg := htm.DefaultConfig()
	cfg.Cores = cores
	return htm.New(cfg)
}

// keepKernel: one core issues every event while its peer has finished, so
// the engine's keep-the-token comparison is the whole scheduling cost.
func keepKernel(n int) float64 {
	m := kernelMachine(2)
	a, b := m.Alloc.AllocLines(1), m.Alloc.AllocLines(1)
	start := time.Now()
	m.Run([]func(*htm.Core){
		func(c *htm.Core) {
			for k := 0; k < n; k++ {
				c.NTLoad(a)
			}
		},
		func(c *htm.Core) { c.NTStore(b, 1) },
	})
	return float64(time.Since(start)) / float64(n)
}

// handoffKernel: every core loads one shared line, so almost every event
// loses the virtual-time race and hands the token on. The slope from c4
// to c16 is the engine's O(cores) minimum scan.
func handoffKernel(cores, n int) float64 {
	m := kernelMachine(cores)
	shared := m.Alloc.AllocLines(1)
	bodies := make([]func(*htm.Core), cores)
	for i := range bodies {
		bodies[i] = func(c *htm.Core) {
			for k := 0; k < n/cores; k++ {
				c.NTLoad(shared)
			}
		}
	}
	start := time.Now()
	m.Run(bodies)
	return float64(time.Since(start)) / float64(n/cores*cores)
}

// memLines is the streaming footprint: 16x the 1024-line L1, so every
// access misses L1 and walks the line table and the presence model.
const memLines = 16 << 10

// memKernel: one core streams plain loads over memLines; the caller
// subtracts keepKernel's cost to leave the memory-hierarchy model's.
func memKernel(n int) float64 {
	m := kernelMachine(2)
	base := m.Alloc.AllocLines(memLines)
	b := m.Alloc.AllocLines(1)
	start := time.Now()
	m.Run([]func(*htm.Core){
		func(c *htm.Core) {
			for k := 0; k < n; k++ {
				c.Load(0x100, 1, base+mem.Addr(k%memLines)*mem.LineSize)
			}
		},
		func(c *htm.Core) { c.NTStore(b, 1) },
	})
	return float64(time.Since(start)) / float64(n)
}

// txKernel: one core commits uncontended 8-load/2-store transactions —
// begin, record, write buffer, commit, table clearing, no aborts.
func txKernel(commits int) float64 {
	m := kernelMachine(1)
	base := m.Alloc.AllocLines(8)
	start := time.Now()
	m.Run([]func(*htm.Core){func(c *htm.Core) {
		for k := 0; k < commits; k++ {
			c.Atomic(htm.DefaultAtomicOpts(), htm.TxHooks{}, func(c *htm.Core) {
				var sum uint64
				for i := 0; i < 8; i++ {
					sum += c.Load(0x100+uint64(i), uint32(i+1), base+mem.Addr(i)*mem.LineSize)
				}
				c.Store(0x110, 9, base, sum)
				c.Store(0x111, 10, base+mem.LineSize, sum+1)
			})
		}
	}})
	return float64(time.Since(start)) / float64(commits)
}

// txStormKernel: cores increment one line transactionally, so the
// conflict-abort, backoff and retry paths stay hot.
func txStormKernel(cores, commits int) float64 {
	m := kernelMachine(cores)
	shared := m.Alloc.AllocLines(1)
	bodies := make([]func(*htm.Core), cores)
	for i := range bodies {
		tid := uint64(i)
		bodies[i] = func(c *htm.Core) {
			for k := 0; k < commits/cores; k++ {
				c.Atomic(htm.DefaultAtomicOpts(), htm.TxHooks{}, func(c *htm.Core) {
					v := c.Load(0x100+tid, 1, shared)
					c.Store(0x110+tid, 2, shared, v+1)
				})
			}
		}
	}
	start := time.Now()
	m.Run(bodies)
	return float64(time.Since(start)) / float64(m.Stats().Commits)
}
