package htm

import (
	"fmt"

	"repro/internal/mem"
)

// AbortReason classifies why a hardware transaction aborted.
type AbortReason uint8

const (
	// AbortNone means the transaction has not aborted.
	AbortNone AbortReason = iota
	// AbortConflict is a data conflict with another core (or with a
	// nontransactional store). Requester wins: the victim aborts.
	AbortConflict
	// AbortOverflow means the speculative working set exceeded L1
	// capacity or associativity.
	AbortOverflow
	// AbortExplicit is a software-requested abort (xabort).
	AbortExplicit
	// AbortLockHeld means the transaction found the irrevocable global
	// lock held when it tried to commit (or subscribe), and self-aborted.
	AbortLockHeld
	// AbortSpurious is a best-effort-HTM abort with no architectural
	// cause visible to software: interrupts, capacity aliasing, TLB
	// shootdowns. The simulator is fault-free by default; these are
	// produced only by an installed FaultInjector.
	AbortSpurious
	numAbortReasons
)

// NumAbortReasons is the number of distinct abort reasons, for sizing
// per-reason counter arrays outside this package.
const NumAbortReasons = int(numAbortReasons)

// String implements fmt.Stringer.
func (r AbortReason) String() string {
	switch r {
	case AbortNone:
		return "none"
	case AbortConflict:
		return "conflict"
	case AbortOverflow:
		return "overflow"
	case AbortExplicit:
		return "explicit"
	case AbortLockHeld:
		return "lock-held"
	case AbortSpurious:
		return "spurious"
	default:
		return fmt.Sprintf("AbortReason(%d)", uint8(r))
	}
}

// AbortInfo is the architectural abort status delivered to the runtime's
// abort handler. On the simulated machine it corresponds to the contents
// of %rbx after a contention abort: the low bits of the conflicting data
// address and, when the machine supports it, the low PCTagBits bits of the
// PC at which the conflicting line was first accessed in the transaction.
type AbortInfo struct {
	Reason AbortReason

	// ConfAddr is the line address of the conflicting datum (conflict
	// aborts only).
	ConfAddr mem.Addr

	// ConfPC holds the truncated conflicting PC; valid only when HasPC is
	// true (requires Config.HardwareCPC).
	ConfPC uint64
	HasPC  bool

	// ByCore is the core whose access caused this abort, or -1.
	ByCore int

	// TrueSite is simulator ground truth: the static site ID of this
	// core's first transactional access to the conflicting line. It is
	// NOT architecturally visible; it exists only so experiments can
	// measure anchor-identification accuracy (Table 3 of the paper).
	TrueSite uint32

	// KillerSite and KillerAB are simulator ground truth about the other
	// side of the conflict, captured at kill time (the requester may have
	// moved on by the time the victim observes the abort): the static
	// site of the killing access (for a lazy commit, the killer's first
	// access to the line) and the killer core's atomic-block tag
	// (SetABTag; 0 = outside any tagged block, e.g. runtime NT stores).
	// Like TrueSite they are not architecturally visible; they feed the
	// conflicting-pair histogram of the metrics report.
	KillerSite uint32
	KillerAB   int
}

// txAbort is the panic sentinel used to unwind a core out of an aborted
// transaction back to its retry loop.
type txAbort struct {
	info AbortInfo
}
