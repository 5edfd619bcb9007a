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

	// UnsafeEarlyGlobalRelease, test-only, makes the irrevocable fallback
	// release the global lock as soon as it holds it, before the body
	// runs. It breaks atomicity on purpose so an exploration campaign has a
	// failing cell to catch and minimize (DESIGN.md, "Schedule exploration
	// and oracles"). Never set outside a test.
	UnsafeEarlyGlobalRelease bool
}

// RetryLoop is the one Config → htm.AtomicOpts lowering (budget, backoff
// policy). Thread.Atomic runs on it, and software backends in the arena
// borrow it from the config the harness hands them (see
// backend.Options.StaggerConfig), so retry tuning applies uniformly
// across backends without this package importing them.
func (c Config) RetryLoop() htm.AtomicOpts {
	return htm.AtomicOpts{
		MaxRetries:  c.MaxRetries,
		BackoffBase: c.BackoffBase,
		RuntimePC:   0xFFFF0,
	}
}

// LockFaults is the advisory-lock fault hook: DropLockRelease reports
// whether the release of one held lock should be lost, simulating a
// holder that died without releasing. New takes it from the machine's
// fault injector (htm.Machine.FaultInjector) when that implements it, as
// the chaos package's Injector does, so an injector is installed once.
type LockFaults interface {
	DropLockRelease(core int) bool
}

// DefaultConfig returns the paper's runtime parameters.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:        mode,
		HistLen:     8,
		PCThr:       2,
		AddrThr:     2,
		PromThr:     4,
		RateWindow:  64,
		NumLocks:    64,
		LockTimeout: 20000,
		LockSpin:    12,
		SWMapWords:  1024,
		MaxRetries:  10,
		BackoffBase: 64,
	}
}

func (c Config) validate() {
	switch {
	case c.HistLen <= 0:
		panic("stagger: HistLen must be positive")
	case c.RateWindow <= 0:
		panic("stagger: RateWindow must be positive")
	case c.NumLocks <= 0 || c.NumLocks&(c.NumLocks-1) != 0:
		panic("stagger: NumLocks must be a positive power of two")
	case c.SWMapWords <= 0 || c.SWMapWords&(c.SWMapWords-1) != 0:
		panic("stagger: SWMapWords must be a positive power of two")
	case c.MaxRetries <= 0:
		panic("stagger: MaxRetries must be positive")
	}
}
