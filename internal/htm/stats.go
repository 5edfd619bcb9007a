package htm

// WaitKind categorizes cycles a core spends stalled rather than executing.
type WaitKind uint8

const (
	// WaitLock is time spent spinning on an advisory lock.
	WaitLock WaitKind = iota
	// WaitBackoff is time spent in inter-retry (polite) backoff.
	WaitBackoff
	// WaitGlobal is time spent waiting for the irrevocable global lock.
	WaitGlobal
	// WaitFault is stall time charged by an installed fault injector
	// (NT-store delays and per-core stall jitter); always zero on a
	// fault-free machine.
	WaitFault
	numWaitKinds
)

// NumWaitKinds is the number of wait categories, for sizing per-kind
// counter arrays outside this package.
const NumWaitKinds = int(numWaitKinds)

// String implements fmt.Stringer.
func (k WaitKind) String() string {
	switch k {
	case WaitLock:
		return "lock"
	case WaitBackoff:
		return "backoff"
	case WaitGlobal:
		return "global"
	case WaitFault:
		return "fault"
	default:
		return "wait(?)"
	}
}

// CoreStats accumulates per-core counters over a simulation. All cycle
// counts are in simulated cycles; µ-op counts follow the conventions of
// the paper's Table 3 (one µ-op per memory access plus whatever compute
// the workload models explicitly).
type CoreStats struct {
	// Commits counts committed transactions, including irrevocable ones.
	Commits uint64
	// IrrevocableCommits counts transactions that gave up on speculation
	// and ran under the global lock (column %I in Table 1 is
	// IrrevocableCommits/Commits).
	IrrevocableCommits uint64
	// Aborts counts aborted transaction attempts by reason.
	Aborts [numAbortReasons]uint64

	// UsefulTxCycles is time inside transaction attempts that committed,
	// excluding in-transaction lock waiting.
	UsefulTxCycles uint64
	// WastedTxCycles is time inside attempts that aborted, excluding
	// in-transaction lock waiting. W/U in Tables 1 and Figure 8(b) is
	// WastedTxCycles / UsefulTxCycles.
	WastedTxCycles uint64
	// WaitCycles is stall time by category (advisory-lock spins, retry
	// backoff, global-lock waits).
	WaitCycles [numWaitKinds]uint64

	// Uops counts executed µ-ops (memory accesses plus modeled compute).
	Uops uint64
	// TxUops counts the subset of Uops issued inside transactions.
	TxUops uint64
	// NTTxCycles is the access latency of nontransactional loads, stores,
	// and CASes issued inside atomic attempts — the cost of manipulating
	// advisory locks and other NT side channels from transactional code.
	// It is a sub-attribution of UsefulTxCycles/WastedTxCycles (those
	// windows include it), not an additional category.
	NTTxCycles uint64
	// Loads, Stores, NTLoads, NTStores count memory accesses by kind.
	Loads, Stores, NTLoads, NTStores uint64
	// L1Hits, L2Hits, L3Hits, MemAccesses classify access latencies.
	L1Hits, L2Hits, L3Hits, MemAccesses uint64

	// FinalClock is the core's virtual time when its thread finished.
	FinalClock uint64
}

// TotalAborts sums aborts across reasons.
func (s *CoreStats) TotalAborts() uint64 {
	var t uint64
	for _, v := range s.Aborts {
		t += v
	}
	return t
}

// EngineStats counts what scheduling one run cost the host: how often
// the engine was consulted, how often that moved the token, and how many
// accesses the token's staying put let skip the memory model. The
// counts are a function of (config, seed) like everything else, but they
// describe the engine, not the simulated machine — the same schedule
// decided through a Scheduler counts differently — so they stay out of
// every encoded result, digest and report.
type EngineStats struct {
	// Syncs is the number of globally visible events the engine ordered;
	// Keeps of them left the token where it was and Handoffs moved it.
	Syncs, Keeps, Handoffs uint64
	// Switches is every coroutine switch the run took: one per handoff,
	// the run loop's first grant, one per body exit, and one per exit
	// whose woken participant had to pass the token on to the grantee.
	Switches uint64
	// Shortcuts is the Loads and NTLoads a core's last-line memo served
	// without probing the directory, its speculative set or its L1.
	Shortcuts uint64
}

// Stats is the machine-wide aggregate of all core stats.
type Stats struct {
	CoreStats
	// Makespan is the maximum final clock across cores: the simulated
	// wall-clock duration of the run.
	Makespan uint64
	PerCore  []CoreStats
	// Engine is host-side scheduling bookkeeping, not simulated output.
	Engine EngineStats `json:"-"`
}

// add folds c into the aggregate.
func (s *Stats) add(c *CoreStats) {
	s.Commits += c.Commits
	s.IrrevocableCommits += c.IrrevocableCommits
	for i := range s.Aborts {
		s.Aborts[i] += c.Aborts[i]
	}
	s.UsefulTxCycles += c.UsefulTxCycles
	s.WastedTxCycles += c.WastedTxCycles
	for i := range s.WaitCycles {
		s.WaitCycles[i] += c.WaitCycles[i]
	}
	s.Uops += c.Uops
	s.TxUops += c.TxUops
	s.NTTxCycles += c.NTTxCycles
	s.Loads += c.Loads
	s.Stores += c.Stores
	s.NTLoads += c.NTLoads
	s.NTStores += c.NTStores
	s.L1Hits += c.L1Hits
	s.L2Hits += c.L2Hits
	s.L3Hits += c.L3Hits
	s.MemAccesses += c.MemAccesses
	if c.FinalClock > s.Makespan {
		s.Makespan = c.FinalClock
	}
}

// AbortsPerCommit returns the Abts/C metric of Table 4.
func (s *Stats) AbortsPerCommit() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.TotalAborts()) / float64(s.Commits)
}

// WastedOverUseful returns the W/U metric of Table 1 and Figure 8(b).
func (s *Stats) WastedOverUseful() float64 {
	if s.UsefulTxCycles == 0 {
		return 0
	}
	return float64(s.WastedTxCycles) / float64(s.UsefulTxCycles)
}

// IrrevocableFraction returns the %I metric of Table 1.
func (s *Stats) IrrevocableFraction() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.IrrevocableCommits) / float64(s.Commits)
}

// TxCycles returns all cycles attributable to transactional execution.
func (s *Stats) TxCycles() uint64 {
	return s.UsefulTxCycles + s.WastedTxCycles + s.WaitCycles[WaitLock] +
		s.WaitCycles[WaitBackoff] + s.WaitCycles[WaitGlobal]
}
