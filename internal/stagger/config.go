// Package stagger implements the staggered-transactions runtime of
// Xiang & Scott (SPAA 2015): per-thread, per-atomic-block contexts,
// ALPoint instrumentation, advisory locks built from nontransactional
// loads and stores, and the four-mode locking policy of Figure 6
// (precise, coarse-grain, locking promotion, training).
package stagger

import (
	"fmt"
	"strings"

	"repro/internal/htm"
)

// Mode selects which system runs — the four bars of Figure 7.
type Mode uint8

const (
	// ModeHTM is the baseline: plain best-effort HTM with retry and
	// irrevocable fallback, no instrumentation.
	ModeHTM Mode = iota
	// ModeAddrOnly places one fixed advisory locking point at the start
	// of each atomic block and uses only precise mode ("AddrOnly").
	ModeAddrOnly
	// ModeStaggeredSW is staggered transactions with software anchor
	// tracking: no hardware conflicting-PC; a per-thread map from cache
	// line to anchor is maintained with nontransactional stores
	// ("Staggered+SW" / "StaggerTM w/o CPC").
	ModeStaggeredSW
	// ModeStaggeredHW is full staggered transactions with the hardware
	// conflicting-PC tag ("Staggered").
	ModeStaggeredHW
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeHTM:
		return "HTM"
	case ModeAddrOnly:
		return "AddrOnly"
	case ModeStaggeredSW:
		return "Staggered+SW"
	case ModeStaggeredHW:
		return "Staggered"
	default:
		return "Mode(?)"
	}
}

// ParseMode parses the user-facing spelling of a mode, shared by the
// CLI flags and the service API: "htm", "addronly", "sw" (also
// "staggeredsw", "staggered+sw"), "staggered" (also "hw", "staggeredhw").
// Matching is case-insensitive.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "htm":
		return ModeHTM, nil
	case "addronly":
		return ModeAddrOnly, nil
	case "staggered+sw", "staggeredsw", "sw":
		return ModeStaggeredSW, nil
	case "staggered", "staggeredhw", "hw":
		return ModeStaggeredHW, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (htm, addronly, sw, staggered)", s)
	}
}

// Instrumented reports whether the mode inserts ALPoint calls at anchors.
func (m Mode) Instrumented() bool {
	return m == ModeStaggeredSW || m == ModeStaggeredHW
}

// Config tunes the runtime. DefaultConfig matches the paper's Section 6.
type Config struct {
	Mode Mode

	// HistLen is the abort-history ring size per ABContext (paper: 8).
	HistLen int
	// PCThr and AddrThr are the recurrence thresholds of Figure 6
	// (paper: PC_THR = 2, ADDR_THR = 2).
	PCThr, AddrThr int
	// PromThr is the number of conflict aborts tolerated in coarse-grain
	// mode before the lock is promoted to the parent anchor.
	PromThr int
	// RateWindow sizes the decaying commit/abort counters behind
	// decision (1): advisory locks are armed only while conflict aborts
	// are frequent relative to commits.
	RateWindow int

	// NumLocks sizes the static advisory-lock table; locks are chosen by
	// hashing the conflicting data address.
	NumLocks int
	// MaxLocksPerTx bounds how many advisory locks one transaction may
	// hold. The paper acquires exactly one ("we acquire only one per
	// transaction in this paper"); higher values let a coarse-grain ALP
	// serialize several distinct objects per transaction. Lock waits are
	// bounded by LockTimeout, so multi-lock acquisition cannot deadlock —
	// at worst a waiter times out and proceeds speculatively.
	MaxLocksPerTx int
	// LockTimeout bounds, in cycles, how long an ALP waits for an
	// advisory lock before proceeding without it (Section 2).
	LockTimeout uint64
	// LockSpin is the pause between lock polls, in cycles.
	LockSpin uint64

	// SWMapWords sizes the per-thread software line-to-anchor map used by
	// ModeStaggeredSW (slots of one word each, direct-mapped).
	SWMapWords int

	// MaxRetries and BackoffBase configure the underlying HTM retry loop.
	MaxRetries  int
	BackoffBase uint64

	// The fields below are the self-healing extensions. All default to
	// off, in which case the runtime's memory traffic is bit-identical to
	// the paper-faithful baseline; HardenedConfig turns them all on.

	// LockLease, when nonzero, lease-stamps advisory lock words: the
	// acquiring CAS packs (expiry, owner) into the word, release checks
	// ownership, and a waiter that finds the lease expired reclaims the
	// lock instead of serializing behind a dead holder until LockTimeout
	// on every transaction. 0 disables (plain owner words, as in the
	// paper).
	LockLease uint64
	// LockPollJitter adds deterministic capped-exponential jitter to the
	// advisory-lock poll interval, breaking the monopolization pattern of
	// the unfair flat spinlock (DESIGN.md "advisory lock fairness"). The
	// default false keeps the paper's unfair polling.
	LockPollJitter bool
	// BackoffExp and BackoffCap select capped exponential retry backoff
	// in the HTM retry loop instead of the paper's linear Polite policy
	// (see htm.AtomicOpts).
	BackoffExp bool
	BackoffCap uint64
	// EscapeThreshold enables the per-atomic-block livelock escape: after
	// this many irrevocable fallbacks inside one rate window, the block's
	// next EscapeCooldown instances run with a single speculative attempt
	// before promoting to irrevocable mode, guaranteeing progress when
	// injected faults (or pathological contention) exhaust retry budgets.
	// 0 disables.
	EscapeThreshold int
	// EscapeCooldown is the number of fast-promoted instances per escape
	// (default 32 when EscapeThreshold > 0).
	EscapeCooldown int
	// LockFaults optionally injects advisory-lock faults (lost releases);
	// the chaos package's Injector implements it. Nil injects nothing.
	LockFaults LockFaults

	// UnsafeEarlyGlobalRelease, test-only, releases the irrevocable global
	// lock before the fallback body runs (see htm.AtomicOpts). It breaks
	// atomicity on purpose so the serializability oracle's detection can be
	// tested end to end. Never set outside a test.
	UnsafeEarlyGlobalRelease bool
}

// RetryLoop is the one Config → htm.AtomicOpts lowering (budget, backoff
// policy, fallback protocol). Thread.Atomic runs on it, and software
// backends in the arena borrow it from the config the harness hands them
// (see backend.Options.StaggerConfig), so retry tuning applies uniformly
// across backends without this package importing them.
func (c Config) RetryLoop() htm.AtomicOpts {
	return htm.AtomicOpts{
		MaxRetries:         c.MaxRetries,
		BackoffBase:        c.BackoffBase,
		BackoffExp:         c.BackoffExp,
		BackoffCap:         c.BackoffCap,
		RuntimePC:          0xFFFF0,
		UnsafeEarlyRelease: c.UnsafeEarlyGlobalRelease,
	}
}

// LockFaults is the advisory-lock fault hook: DropLockRelease reports
// whether the release of one held lock should be lost, simulating a
// holder that died without releasing.
type LockFaults interface {
	DropLockRelease(core int) bool
}

// DefaultConfig returns the paper's runtime parameters.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:          mode,
		HistLen:       8,
		PCThr:         2,
		AddrThr:       2,
		PromThr:       4,
		RateWindow:    64,
		NumLocks:      64,
		MaxLocksPerTx: 1,
		LockTimeout:   20000,
		LockSpin:      12,
		SWMapWords:    1024,
		MaxRetries:    10,
		BackoffBase:   64,
	}
}

// HardenedConfig is DefaultConfig with every self-healing feature on:
// lease-stamped advisory locks reclaimed after LockTimeout, jittered lock
// polling, capped exponential retry backoff, and the per-atomic-block
// livelock escape. This is the configuration the chaos campaigns run.
func HardenedConfig(mode Mode) Config {
	c := DefaultConfig(mode)
	c.LockLease = c.LockTimeout
	c.LockPollJitter = true
	c.BackoffExp = true
	c.BackoffCap = 4096
	c.EscapeThreshold = 8
	c.EscapeCooldown = 32
	return c
}

func (c *Config) validate() {
	if c.EscapeThreshold > 0 && c.EscapeCooldown <= 0 {
		c.EscapeCooldown = 32
	}
	switch {
	case c.HistLen <= 0:
		panic("stagger: HistLen must be positive")
	case c.RateWindow <= 0:
		panic("stagger: RateWindow must be positive")
	case c.NumLocks <= 0 || c.NumLocks&(c.NumLocks-1) != 0:
		panic("stagger: NumLocks must be a positive power of two")
	case c.MaxLocksPerTx <= 0:
		panic("stagger: MaxLocksPerTx must be positive")
	case c.SWMapWords <= 0 || c.SWMapWords&(c.SWMapWords-1) != 0:
		panic("stagger: SWMapWords must be a positive power of two")
	case c.MaxRetries <= 0:
		panic("stagger: MaxRetries must be positive")
	}
}
