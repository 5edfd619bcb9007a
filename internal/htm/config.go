// Package htm implements a deterministic cycle-level simulator of a
// multicore machine with best-effort hardware transactional memory.
//
// The simulated HTM follows the ASF-variant machine of Xiang & Scott
// (SPAA 2015), Table 2: an eager requester-wins conflict resolution
// policy over cache-line-granularity read/write sets kept in the L1,
// plus two extensions the paper requires:
//
//   - nontransactional loads and immediate nontransactional stores that
//     may be issued from inside an active transaction without joining
//     its speculative sets, and
//   - a 12-bit PC tag per L1 line recording the program counter of the
//     first transactional access to the line, reported on conflict
//     aborts ("conflicting PC").
//
// Simulated cores are coroutines, and all globally visible events are
// serialized by a virtual-time token engine, so simulations are fully
// deterministic: the same program and seed produce the same interleaving,
// the same aborts, and the same cycle counts on every run.
//
// A section's write buffer and, on an observed machine, the log of its
// first reads are mem.WordSet tables, handed to the TxObserver as
// borrowed []mem.Word slices at the commit point. Software runtimes ride
// the same primitives: ReportAtomic and NTStoreBatch take the same
// slices, and the retry policy (AtomicOpts, Core.Backoff) is spelled
// once for Core.Atomic and for them.
package htm

// IssueWidth is the compute µ-ops a core retires per cycle (paper:
// 4-wide). It is a constant, not a Config field, so Core.Compute's
// rounding divide compiles to a shift.
const IssueWidth = 4

// Config describes the simulated machine. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	// Cores is the number of simulated cores (the paper models 16).
	Cores int

	// L1Lines and L1Ways size the per-core L1 data cache in cache lines.
	// 1024 lines of 64 bytes at 8 ways matches the paper's 64 KB L1.
	L1Lines int
	L1Ways  int

	// Latencies, in cycles, for a load or store that hits at each level.
	L1Lat  uint64 // L1 hit (paper: 2)
	L2Lat  uint64 // private L2 hit (paper: 10)
	L3Lat  uint64 // shared L3 hit or cache-to-cache transfer (paper: 30)
	MemLat uint64 // DRAM (paper: 50 ns at 2.5 GHz = 125 cycles)

	// MemChannels and MemOccupancy model DRAM bandwidth: each memory
	// access occupies one of MemChannels channels for MemOccupancy
	// cycles, and concurrent accesses to a busy channel queue behind it
	// (paper: 2 memory channels). Without this, memory-bound kernels
	// like ssca2 would scale implausibly.
	MemChannels  int
	MemOccupancy uint64

	// TxBeginCost and TxCommitCost are the fixed costs, in cycles, of the
	// speculate and commit instructions.
	TxBeginCost  uint64
	TxCommitCost uint64

	// PCTagBits is the width of the per-line conflicting-PC tag
	// (paper: 12). Truncation can alias distinct instructions, which is
	// exactly the accuracy effect Table 3 measures.
	PCTagBits int

	// MaxSpecLines bounds the speculative read/write set to that many
	// distinct cache lines per transaction, independent of L1 geometry:
	// the first access that would add a line beyond the bound aborts the
	// attempt with AbortOverflow. This is the capacity knob of the
	// limited read/write-set HTM variant (Kafousis-style best-effort
	// HTM with small dedicated transactional buffers); 0 (the default)
	// imposes no bound beyond L1 associativity, leaving the baseline
	// machine bit-identical.
	MaxSpecLines int

	// HardwareCPC enables the conflicting-PC tag. When false, conflict
	// aborts report only the conflicting data address, and a runtime must
	// fall back to software anchor tracking (Section 4 of the paper).
	HardwareCPC bool

	// Lazy switches conflict detection from eager requester-wins to lazy
	// committer-wins: speculative accesses proceed without aborting
	// anyone, and at commit time the committer aborts every transaction
	// whose speculative sets intersect its write set (Figure 1(b) of the
	// paper; the lazy-TM extension its conclusion proposes). Staggered
	// transactions run unchanged on top — their contention reduction is
	// designed to be independent of the resolution policy.
	Lazy bool

	// WatchdogCycles bounds each core's virtual clock: a core whose clock
	// exceeds the bound before its thread body returns trips a progress
	// watchdog that fails the run loudly (with the last transaction
	// events) instead of letting a livelocked simulation spin forever.
	// 0 (the default) disables the watchdog.
	WatchdogCycles uint64

	// WatchdogTrace sizes the trailing-event ring attached to watchdog
	// failure reports (0 = the built-in default of 32). Exploration
	// campaigns raise it so minimized repros carry enough context.
	WatchdogTrace int

	// Seed feeds the per-core PRNGs used for backoff jitter.
	Seed int64

	// HeapBase and HeapSize bound the simulated heap.
	HeapBase uint64
	HeapSize uint64
}

// DefaultConfig returns the machine of Table 2 in the paper.
func DefaultConfig() Config {
	return Config{
		Cores:        16,
		L1Lines:      1024,
		L1Ways:       8,
		L1Lat:        2,
		L2Lat:        10,
		L3Lat:        30,
		MemLat:       125,
		MemChannels:  2,
		MemOccupancy: 24,
		TxBeginCost:  8,
		TxCommitCost: 16,
		PCTagBits:    12,
		HardwareCPC:  true,
		Seed:         1,
		HeapBase:     1 << 20,
		HeapSize:     1 << 28,
	}
}

func (c *Config) validate() {
	switch {
	case c.Cores <= 0 || c.Cores > 32:
		panic("htm: Cores must be in 1..32")
	case c.L1Lines <= 0 || c.L1Ways <= 0 || c.L1Lines%c.L1Ways != 0:
		panic("htm: L1Lines must be a positive multiple of L1Ways")
	case c.PCTagBits <= 0 || c.PCTagBits > 16:
		panic("htm: PCTagBits must be in 1..16")
	case c.MemChannels <= 0:
		panic("htm: MemChannels must be positive")
	case c.MaxSpecLines < 0:
		panic("htm: MaxSpecLines must be nonnegative")
	case c.HeapBase == 0 || c.HeapBase%64 != 0:
		panic("htm: HeapBase must be nonzero and line-aligned")
	}
}

// pcMask returns the mask selecting the architecturally visible PC bits.
func (c *Config) pcMask() uint64 { return (1 << c.PCTagBits) - 1 }
