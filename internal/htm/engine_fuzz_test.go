package htm

import (
	"reflect"
	"testing"

	"repro/internal/mem"
)

// handoffRun executes a synthetic program decoded from ops on a fresh
// machine: cores (2..4) interleave nontransactional loads/stores, compute
// bursts, spin waits, and full retrying hardware transactions over two
// shared lines. Every byte drives one step of one core (round-robin), so
// the fuzzer controls the exact mix and phase of memory events without
// being able to make a run diverge between engines. The full transaction
// event trace is recorded for cycle-for-cycle comparison.
func handoffRun(cores int, ops []byte, refEngine bool) (Stats, []TraceEvent, *mem.Memory) {
	cfg := smallConfig(cores)
	cfg.RefEngine = refEngine
	m := New(cfg)
	m.EnableTrace(0)
	sharedA := m.Alloc.AllocLines(1)
	sharedB := m.Alloc.AllocLines(1)
	private := make([]mem.Addr, cores)
	for i := range private {
		private[i] = m.Alloc.AllocLines(1)
	}
	bodies := make([]func(*Core), cores)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *Core) {
			for k := tid; k < len(ops); k += cores {
				b := ops[k]
				switch b % 6 {
				case 0:
					c.NTStore(sharedA, uint64(b))
				case 1:
					c.NTLoad(sharedB)
				case 2:
					c.Compute(int(b%32) + 1)
				case 3:
					c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
						v := c.Load(0x100+uint64(tid), 1, sharedA)
						c.Compute(int(b % 8))
						c.Store(0x110+uint64(tid), 2, sharedA, v+1)
					})
				case 4:
					c.Atomic(DefaultAtomicOpts(), TxHooks{}, func(c *Core) {
						v := c.Load(0x120+uint64(tid), 3, sharedB)
						c.Store(0x130+uint64(tid), 4, sharedB, v+uint64(b))
						c.Store(0x140+uint64(tid), 5, private[tid], v)
					})
				default:
					c.SpinWait(uint64(b%64), WaitBackoff)
				}
			}
		}
	}
	m.Run(bodies)
	s := m.Stats()
	// Engine counts describe the cooperative engine's own work; the
	// reference engine has none, and they are not simulated output.
	s.Engine = EngineStats{}
	return s, m.Trace(), m.Mem
}

// FuzzEngineHandoff drives arbitrary NT/tx interleavings across 2-4 cores
// through both the optimized engine (per-tenure fast-path handoff) and the
// retained reference engine (full minimum scan at every sync) and requires
// them to agree cycle-for-cycle: identical statistics (every clock, abort,
// and cache counter), an identical transaction event trace, and identical
// final memory.
func FuzzEngineHandoff(f *testing.F) {
	f.Add(uint8(2), []byte{3, 3, 3, 3, 0, 1, 4, 4})
	f.Add(uint8(3), []byte{3, 4, 3, 4, 3, 4, 2, 5, 0, 0, 1, 3, 4, 3})
	f.Add(uint8(4), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	f.Add(uint8(4), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, coresRaw uint8, ops []byte) {
		cores := 2 + int(coresRaw)%3
		if len(ops) > 512 {
			ops = ops[:512]
		}
		fastStats, fastTrace, fastMem := handoffRun(cores, ops, false)
		refStats, refTrace, refMem := handoffRun(cores, ops, true)
		if !reflect.DeepEqual(fastStats, refStats) {
			t.Fatalf("stats diverge between engines:\nfast: %+v\nref:  %+v", fastStats, refStats)
		}
		if !reflect.DeepEqual(fastTrace, refTrace) {
			t.Fatalf("event traces diverge (fast %d events, ref %d):\nfast:\n%s\nref:\n%s",
				len(fastTrace), len(refTrace), FormatTrace(fastTrace), FormatTrace(refTrace))
		}
		if d := fastMem.Diff(refMem, 4); len(d) != 0 {
			t.Fatalf("final memory diverges at %v", d)
		}
	})
}

// TestEngineHandoffEquivalenceSweep runs the differential check over a
// deterministic family of op mixes so the equivalence holds in plain
// `go test` runs too, not only under the fuzzer.
func TestEngineHandoffEquivalenceSweep(t *testing.T) {
	for cores := 2; cores <= 4; cores++ {
		for variant := 0; variant < 8; variant++ {
			ops := make([]byte, 96)
			for i := range ops {
				ops[i] = byte((i*7 + variant*13 + i*i*variant) % 256)
			}
			fastStats, fastTrace, _ := handoffRun(cores, ops, false)
			refStats, refTrace, _ := handoffRun(cores, ops, true)
			if !reflect.DeepEqual(fastStats, refStats) {
				t.Fatalf("cores=%d variant=%d: stats diverge", cores, variant)
			}
			if !reflect.DeepEqual(fastTrace, refTrace) {
				t.Fatalf("cores=%d variant=%d: traces diverge", cores, variant)
			}
		}
	}
}
