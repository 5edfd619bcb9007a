// Package simds provides the shared data structures the benchmarks run
// on: sorted linked lists, chained hash tables, a B+ tree priority queue,
// a red-black tree, a FIFO task queue, accumulator arrays, and a routing
// grid — all laid out in the simulator's memory so that cache-line-level
// conflicts are real, and all declared in the prog IR so that the
// compiler pass can select anchors in their code.
//
// Each structure follows the same pattern: a Declare* function registers
// the structure's static functions (once per module — they model a shared
// library like STAMP's lib/list.c), and the returned ops value carries
// both the IR handles and the execution methods, which take a
// backend.Ctx so each concurrency-control backend can layer its own
// instrumentation (ALPoints, OCC read-set logging) over the accesses.
//
// The same methods also run untimed, through Direct, when a workload
// seeds a structure before the run or reads it back to verify: this
// package is the only code that knows a structure's memory layout.
package simds

import (
	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// Ctx is the access context data structure operations run against: the
// arena-wide backend.Ctx interface (each backend's *Thread implements
// it).
type Ctx = backend.Ctx

// Direct returns an untimed context over m's memory, for running a
// structure's own operations at setup and verification. Load and Store
// go straight to m.Mem: they cost no cycles and touch no cache,
// directory or transactional state. Compute and Op do nothing. Core is
// unavailable and panics, so operations that reach the core (such as
// Grid.Snapshot) are not for Direct.
func Direct(m *htm.Machine) Ctx { return direct{m.Mem} }

type direct struct{ mem *mem.Memory }

func (direct) Core() *htm.Core                            { panic("simds: Direct has no core") }
func (direct) Op(any)                                     {}
func (direct) Compute(int)                                {}
func (d direct) Load(_ *prog.Site, a mem.Addr) uint64     { return d.mem.Load(a) }
func (d direct) Store(_ *prog.Site, a mem.Addr, v uint64) { d.mem.Store(a, v) }

// nilPtr is the simulated null pointer.
const nilPtr = 0

// w converts a word offset to a byte offset.
func w(i int) mem.Addr { return mem.Addr(i * mem.WordSize) }
