// Package workloads ports the paper's ten benchmarks to the simulated
// machine: genome, intruder, kmeans, labyrinth, ssca2, vacation (STAMP),
// list-lo and list-hi (RSTM IntSet), tsp (branch-and-bound over a B+ tree
// priority queue), and memcached (key-value store with global statistics).
//
// Each port reproduces the benchmark's *contention pattern* as itemized
// in Table 1 of the paper (linked lists, priority queue head, statistics
// line, task queues, accumulator arrays, red-black trees) on real shared
// data structures in simulated memory, with synthetic inputs drawn from
// seeded PRNGs. Work is fixed in total and split across threads, so
// speedup is sequential-cycles over parallel-makespan.
package workloads

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/oracle"
	"repro/internal/prog"
)

// Workload is one runnable benchmark. Setup allocates state inside one
// machine, Body closures reference it, Verify checks it after the run.
// An instance is not tied to one run: the harness runs the schedules of
// an exploration campaign on one instance, calling Setup on a reset
// machine before each. Setup must therefore re-initialise everything the
// instance keeps outside simulated memory (addresses, host-side counters
// that Verify reads), never extend it; Mod is read-only once built.
// harness's TestPreparedCellMatchesFreshRun holds every workload to that.
// One instance serves one run at a time.
type Workload struct {
	// Name is the benchmark's identifier (e.g. "list-hi").
	Name string
	// Description summarizes source and input, as in Table 4.
	Description string
	// Contention is the paper's qualitative rating: low / med / high.
	Contention string
	// Mod is the finalized static program of the benchmark.
	Mod *prog.Module

	// TotalOps is the default total transactional operation count, as
	// registered (see DefaultOps).
	TotalOps int

	// Setup seeds the shared data untimed (simds.Direct or a simds seeder).
	Setup func(m *htm.Machine, seed int64)
	// Body returns the thread body for thread tid of threads, performing
	// ops operations.
	Body func(rt backend.Runtime, tid, threads, ops int, seed int64) func(*htm.Core)
	// Verify checks post-run invariants against the expected totals.
	Verify func(m *htm.Machine, threads, totalOps int) error

	// RefModel builds the benchmark's sequential reference model for the
	// serializability oracle (nil = read-validation and final-state checks
	// only). It is called after Setup, with the same machine and seed, so
	// closures may capture post-setup addresses; the returned model is
	// stepped once per committed operation tag, in commit order. Bodies
	// declare their tags with backend.Ctx.Op. Without an oracle Op does
	// nothing, but each tag that is not pointer-shaped is still boxed
	// into an interface, one heap allocation per tagged op.
	RefModel func(m *htm.Machine, seed int64) oracle.RefModel
}

// Builder constructs a fresh workload instance (fresh module and state).
type Builder func() *Workload

// entry is what is known about a benchmark without building it — its
// default operation count — and how to build it.
type entry struct {
	ops   int
	build Builder
}

var registry = map[string]entry{}

// builds counts Get calls: each one constructs and finalizes a module.
var builds atomic.Uint64

// register adds a benchmark with its default total operation count;
// called from each workload's init.
func register(name string, ops int, b Builder) {
	if _, dup := registry[name]; dup {
		panic("workloads: duplicate " + name)
	}
	registry[name] = entry{ops, b}
}

func lookup(name string) (entry, error) {
	e, ok := registry[name]
	if !ok {
		return entry{}, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	return e, nil
}

// Get builds a fresh instance of the named workload.
func Get(name string) (*Workload, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	builds.Add(1)
	w := e.build()
	w.TotalOps = e.ops
	return w, nil
}

// DefaultOps returns the named workload's default total operation count
// without building the workload: resolving a cell's defaults and keying
// it need nothing else of it.
func DefaultOps(name string) (int, error) {
	e, err := lookup(name)
	return e.ops, err
}

// Builds reports how many workloads Get has built in this process, so a
// test can hold a path to building none.
func Builds() uint64 { return builds.Load() }

// Names lists registered benchmarks in the paper's Table 4 order where
// applicable, alphabetically otherwise.
func Names() []string {
	order := []string{"genome", "intruder", "kmeans", "labyrinth", "ssca2",
		"vacation", "list-lo", "list-hi", "tsp", "memcached"}
	rest := slices.DeleteFunc(slices.Sorted(maps.Keys(registry)),
		func(n string) bool { return slices.Contains(order, n) })
	return append(order, rest...)
}

// Split gives thread tid its share of total operations.
func Split(total, threads, tid int) int {
	n := total / threads
	if tid < total%threads {
		n++
	}
	return n
}

// threadRNG derives a deterministic per-thread generator.
func threadRNG(seed int64, tid int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(tid)*7919 + 17))
}
