// Package chaos provides deterministic, seeded fault injection for the
// HTM simulator and the staggered-transactions runtime.
//
// The paper's central safety argument is that advisory locks are
// *advisory*: a lost, stale, or never-released lock word may cost
// performance but never correctness or progress. This package exercises
// that claim. An Injector implements htm.FaultInjector (spurious
// transaction aborts, transient NT-store delays, per-core stall jitter)
// and stagger's LockFaults (advisory-lock releases lost because "the
// holder died"), drawing every decision from per-core splitmix64 streams
// seeded by the run. Because the simulator serializes all globally
// visible events by virtual time, the injector is only ever consulted at
// deterministic points in a deterministic order, so the entire fault
// schedule — and therefore the whole run — is exactly reproducible from
// (rate, seed).
package chaos

import (
	"repro/internal/htm"
)

// The fixed cost of the two stall classes, in cycles.
const (
	// NTDelayCycles is one delayed nontransactional store or CAS.
	NTDelayCycles = 300
	// JitterCycles is one per-core scheduling stall at a memory event.
	JitterCycles = 60
)

// Counts reports how many faults of each class an injector delivered.
type Counts struct {
	Aborts, NTDelays, LockDrops, Jitters uint64
}

// Total sums all fault classes.
func (c Counts) Total() uint64 { return c.Aborts + c.NTDelays + c.LockDrops + c.Jitters }

// Injector is a deterministic fault source for one simulation run: every
// fault class fires at one rate. Spurious aborts are consulted at each
// transactional memory event, NT delays at each nontransactional store
// or CAS, stall jitter at each memory event, and lost releases at each
// advisory-lock release. It is single-use: a reset machine
// (htm.Machine.Reset) drops it, and the next run installs a new one. The
// engine's token discipline serializes all calls, and each core draws
// from its own stream, so no locking is needed.
type Injector struct {
	rate    float64
	streams []uint64 // per-core splitmix64 states

	// Counts is what the injector has delivered so far.
	Counts Counts
}

// NewInjector builds an injector firing every fault class at rate, for a
// machine with the given core count. Zero is a valid, distinct seed:
// fault schedules are a pure function of (rate, seed).
func NewInjector(rate float64, seed int64, cores int) *Injector {
	in := &Injector{rate: rate, streams: make([]uint64, cores)}
	for i := range in.streams {
		// Distinct, well-mixed stream per core; the +1 keeps seed 0 and
		// core 0 away from the splitmix fixed point at state 0.
		in.streams[i] = mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 1)
	}
	return in
}

// hit draws one value from core's splitmix64 stream and compares it
// against the rate: a draw is below 1 and never below 0, so rate 1
// always fires and rate 0 never does. Every query consumes exactly one
// draw regardless of outcome, so the stream position depends only on how
// many times each hook ran.
func (in *Injector) hit(core int) bool {
	in.streams[core] += 0x9e3779b97f4a7c15
	return float64(mix64(in.streams[core])>>11)/float64(1<<53) < in.rate
}

// SpuriousAbort implements htm.FaultInjector.
func (in *Injector) SpuriousAbort(core int) (htm.AbortReason, bool) {
	if !in.hit(core) {
		return htm.AbortNone, false
	}
	in.Counts.Aborts++
	return htm.AbortSpurious, true
}

// NTDelay implements htm.FaultInjector.
func (in *Injector) NTDelay(core int) uint64 {
	if !in.hit(core) {
		return 0
	}
	in.Counts.NTDelays++
	return NTDelayCycles
}

// StallJitter implements htm.FaultInjector.
func (in *Injector) StallJitter(core int) uint64 {
	if !in.hit(core) {
		return 0
	}
	in.Counts.Jitters++
	return JitterCycles
}

// DropLockRelease implements stagger.LockFaults: when true, the runtime
// skips the release of one advisory lock, modeling a holder that died
// (or was descheduled indefinitely) while holding it.
func (in *Injector) DropLockRelease(core int) bool {
	if !in.hit(core) {
		return false
	}
	in.Counts.LockDrops++
	return true
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// statically assert the htm hook contract.
var _ htm.FaultInjector = (*Injector)(nil)
