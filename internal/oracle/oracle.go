// Package oracle implements a per-run serializability checker for the htm
// simulator.
//
// The checker observes every committed effect of a run (via htm.TxObserver)
// and maintains a shadow copy of simulated memory to which effects are
// applied atomically, in commit order. Because the simulator serializes all
// globally visible events, commit order IS the claimed serialization order
// of the execution; the oracle verifies the claim:
//
//   - Read validation: each committed atomic section's logged first reads
//     must equal the shadow's values at its commit point. If the section
//     observed a value no prefix of the commit order explains — e.g. half
//     of another section's writes, which a broken fallback-lock protocol
//     permits — the read diverges from the shadow and is reported.
//   - Reference-model validation: each committed section carries an opaque
//     operation tag; the workload's sequential reference model re-executes
//     the tags in commit order and checks each observed result. This
//     catches semantic violations (lost updates, duplicated queue pops)
//     even when every individual read happens to validate.
//   - Final-state comparison: after the run, shadow and real memory must
//     be word-for-word identical; a divergence means some committed effect
//     was not serializable as claimed (or was never reported — a harness
//     bug either way).
//
// The key subtlety is the treatment of irrevocable sections: their plain
// stores reach real simulated memory one by one, but the shadow applies
// them as one atomic unit at the section's end. Under a correct protocol
// no transaction can commit between an irrevocable section's first store
// and its end (commit subscribes to the global lock), so the deferral is
// invisible; under a broken protocol a racing transaction commits a half
// view of the section and its reads fail validation against the shadow.
package oracle

import (
	"fmt"

	"repro/internal/mem"
)

// RefModel is a sequential reference model of one workload. Step applies
// one committed operation tag (the workload-defined value passed to
// backend.Ctx.Op) and returns an error if the operation's observed behaviour is
// inconsistent with the model's sequential execution of the commit order.
type RefModel interface {
	Step(tag any) error
}

// Finisher is an optional RefModel extension: models that can compare
// their final sequential state against the run's real final memory
// implement it, and the harness calls Finish once after the machine has
// run (and after FinalCheck).
type Finisher interface {
	Finish() error
}

// ViolationKind classifies an oracle finding.
type ViolationKind uint8

const (
	// ReadDivergence: a committed section read a value the commit-order
	// prefix cannot explain.
	ReadDivergence ViolationKind = iota
	// ModelDivergence: the reference model rejected a committed operation.
	ModelDivergence
	// FinalDivergence: shadow and real memory differ after the run.
	FinalDivergence
)

func (k ViolationKind) String() string {
	switch k {
	case ReadDivergence:
		return "read-divergence"
	case ModelDivergence:
		return "model-divergence"
	case FinalDivergence:
		return "final-divergence"
	default:
		return "violation(?)"
	}
}

// Violation is one serializability failure.
type Violation struct {
	Kind   ViolationKind
	Commit int      // 1-based commit index at which it was detected
	Core   int      // committing core (-1 for final-state checks)
	Word   mem.Addr // offending word (read/final divergence)
	Got    uint64   // value the section observed / real memory holds
	Want   uint64   // value the shadow holds
	Err    error    // model error (model divergence)
}

func (v Violation) Error() string {
	switch v.Kind {
	case ModelDivergence:
		return fmt.Sprintf("oracle: commit %d (core %d): model divergence: %v", v.Commit, v.Core, v.Err)
	case FinalDivergence:
		return fmt.Sprintf("oracle: final state: word %#x = %#x, shadow has %#x", uint64(v.Word), v.Got, v.Want)
	default:
		return fmt.Sprintf("oracle: commit %d (core %d): read of word %#x observed %#x, serialization order requires %#x",
			v.Commit, v.Core, uint64(v.Word), v.Got, v.Want)
	}
}

// maxViolations bounds how many violations one run retains; one is enough
// to fail a run, a handful is enough to debug it.
const maxViolations = 16

// Checker is the per-run serializability oracle. It implements
// htm.TxObserver; install it with Machine.SetObserver before Run, seeded
// with a snapshot of post-setup memory.
type Checker struct {
	shadow     *mem.Memory
	model      RefModel
	commits    int
	violations []Violation
}

// New returns a checker whose shadow starts from snapshot, which must be a
// private copy of post-setup memory: mem.Memory.Snapshot's, or a memory
// of an earlier checker refilled by mem.Memory.CopyInto (the checker
// keeps nothing else between runs, so the shadow is the only part worth
// reusing). model may be nil to skip reference-model validation.
func New(snapshot *mem.Memory, model RefModel) *Checker {
	return &Checker{shadow: snapshot, model: model}
}

// OnStore applies an immediate nontransactional mutation to the shadow.
// Such stores are their own (single-word) atomic units in the commit
// order, so no validation applies.
func (k *Checker) OnStore(core int, addr mem.Addr, val uint64) {
	k.shadow.Store(addr, val)
}

// OnCommit validates one committed atomic section against the shadow,
// applies its writes, and steps the reference model. reads and writes
// are the committer's own tables in access order (see htm.TxObserver),
// so divergent reads of one commit are reported in first-read order.
func (k *Checker) OnCommit(core int, irrevocable bool, tag any, reads, writes []mem.Word) {
	k.commits++
	for _, r := range reads {
		if want := k.shadow.Load(r.Addr); r.Val != want {
			k.report(Violation{Kind: ReadDivergence, Commit: k.commits, Core: core, Word: r.Addr, Got: r.Val, Want: want})
		}
	}
	for _, w := range writes {
		k.shadow.Store(w.Addr, w.Val)
	}
	if k.model != nil && tag != nil {
		if err := k.model.Step(tag); err != nil {
			k.report(Violation{Kind: ModelDivergence, Commit: k.commits, Core: core, Err: err})
		}
	}
}

// FinalCheck compares the shadow against the run's real final memory and
// records any divergence. Call once, after the machine has run.
func (k *Checker) FinalCheck(real *mem.Memory) {
	for _, w := range real.Diff(k.shadow, 8) {
		k.report(Violation{Kind: FinalDivergence, Commit: k.commits, Core: -1,
			Word: w, Got: real.Load(w), Want: k.shadow.Load(w)})
	}
}

func (k *Checker) report(v Violation) {
	if len(k.violations) < maxViolations {
		k.violations = append(k.violations, v)
	}
}

// Commits returns how many atomic sections have committed.
func (k *Checker) Commits() int { return k.commits }

// Err returns nil when the run validated, or the first violation.
func (k *Checker) Err() error {
	if len(k.violations) == 0 {
		return nil
	}
	v := k.violations[0]
	return fmt.Errorf("%d serializability violation(s); first: %w", len(k.violations), v)
}
