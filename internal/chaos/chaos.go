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
// seeded by the configuration. Because the simulator serializes all
// globally visible events by virtual time, the injector is only ever
// consulted at deterministic points in a deterministic order, so the
// entire fault schedule — and therefore the whole run — is exactly
// reproducible from (seed, config).
package chaos

import (
	"repro/internal/htm"
)

// Config selects fault classes and rates. The zero value injects nothing.
type Config struct {
	// AbortRate is the probability, per transactional memory event, of a
	// spurious abort (interrupts, capacity aliasing, and other
	// best-effort-HTM noise).
	AbortRate float64
	// AbortCode is the architectural abort reason injected (zero value:
	// htm.AbortSpurious). Setting it to htm.AbortConflict stresses the
	// locking policy with causeless conflict reports.
	AbortCode htm.AbortReason
	// NTDelayRate is the probability, per nontransactional store or CAS,
	// of a transient delay of NTDelayCycles.
	NTDelayRate   float64
	NTDelayCycles uint64
	// LockDropRate is the probability that an advisory-lock release is
	// lost — the holder "dies" without releasing, leaving a stale owner
	// in the lock word.
	LockDropRate float64
	// JitterRate is the probability, per memory event, of a per-core
	// stall of JitterCycles (scheduling noise).
	JitterRate   float64
	JitterCycles uint64
	// Seed seeds the injector's per-core streams. Zero is a valid,
	// distinct seed: fault schedules are a pure function of (Seed, rates).
	Seed int64
}

// Enabled reports whether any fault class has a nonzero rate.
func (c Config) Enabled() bool {
	return c.AbortRate > 0 || c.NTDelayRate > 0 || c.LockDropRate > 0 || c.JitterRate > 0
}

// Scaled returns the standard campaign mix with every fault class scaled
// by rate: at rate r, spurious aborts and NT delays fire with probability
// r, stall jitter with r, and lock releases are lost with probability r.
func Scaled(rate float64, seed int64) Config {
	return Config{
		AbortRate:     rate,
		NTDelayRate:   rate,
		NTDelayCycles: 300,
		LockDropRate:  rate,
		JitterRate:    rate,
		JitterCycles:  60,
		Seed:          seed,
	}
}

// Counts reports how many faults of each class an injector delivered.
type Counts struct {
	Aborts, NTDelays, LockDrops, Jitters uint64
}

// Total sums all fault classes.
func (c Counts) Total() uint64 { return c.Aborts + c.NTDelays + c.LockDrops + c.Jitters }

// Injector is a deterministic fault source for one simulation run. It is
// single-use: a reset machine (htm.Machine.Reset) drops it, and the next
// run installs a new one. The engine's token
// discipline serializes all calls, and each core draws from its own
// stream, so no locking is needed.
type Injector struct {
	cfg       Config
	abortCode htm.AbortReason
	streams   []uint64 // per-core splitmix64 states
	counts    []Counts // per-core, summed by Counts()
}

// NewInjector builds an injector for a machine with the given core count.
func NewInjector(cfg Config, cores int) *Injector {
	in := &Injector{
		cfg:       cfg,
		abortCode: cfg.AbortCode,
		streams:   make([]uint64, cores),
		counts:    make([]Counts, cores),
	}
	if in.abortCode == htm.AbortNone {
		in.abortCode = htm.AbortSpurious
	}
	for i := range in.streams {
		// Distinct, well-mixed stream per core; the +1 keeps seed 0 and
		// core 0 away from the splitmix fixed point at state 0.
		in.streams[i] = mix64(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(i) + 1)
	}
	return in
}

// next advances core's stream (splitmix64).
func (in *Injector) next(core int) uint64 {
	in.streams[core] += 0x9e3779b97f4a7c15
	return mix64(in.streams[core])
}

// hit draws one value from core's stream and compares it against rate.
// Every query consumes exactly one draw regardless of outcome, so the
// stream position depends only on how many times each hook ran.
func (in *Injector) hit(core int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		in.next(core)
		return true
	}
	return float64(in.next(core)>>11)/float64(1<<53) < rate
}

// SpuriousAbort implements htm.FaultInjector.
func (in *Injector) SpuriousAbort(core int, now uint64) (htm.AbortReason, bool) {
	if !in.hit(core, in.cfg.AbortRate) {
		return htm.AbortNone, false
	}
	in.counts[core].Aborts++
	return in.abortCode, true
}

// NTDelay implements htm.FaultInjector.
func (in *Injector) NTDelay(core int, now uint64) uint64 {
	if !in.hit(core, in.cfg.NTDelayRate) {
		return 0
	}
	in.counts[core].NTDelays++
	return in.cfg.NTDelayCycles
}

// StallJitter implements htm.FaultInjector.
func (in *Injector) StallJitter(core int, now uint64) uint64 {
	if !in.hit(core, in.cfg.JitterRate) {
		return 0
	}
	in.counts[core].Jitters++
	return in.cfg.JitterCycles
}

// DropLockRelease implements stagger.LockFaults: when true, the runtime
// skips the release of one advisory lock, modeling a holder that died
// (or was descheduled indefinitely) while holding it.
func (in *Injector) DropLockRelease(core int) bool {
	if !in.hit(core, in.cfg.LockDropRate) {
		return false
	}
	in.counts[core].LockDrops++
	return true
}

// Counts sums delivered faults across cores.
func (in *Injector) Counts() Counts {
	var t Counts
	for _, c := range in.counts {
		t.Aborts += c.Aborts
		t.NTDelays += c.NTDelays
		t.LockDrops += c.LockDrops
		t.Jitters += c.Jitters
	}
	return t
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
