package htm

import "repro/internal/mem"

// TxObserver is the hook surface for correctness oracles (implemented by
// internal/oracle). A machine with no observer takes none of these calls
// and logs nothing, so the hooks are zero-impact by default.
//
// All calls happen under the engine's token discipline, so the call order
// is the global serialization order of the simulated execution:
//
//   - OnCommit fires once per atomic section, at its atomicity point — a
//     hardware transaction's commit instruction, or the end of an
//     irrevocable section's body. reads holds each word the section read
//     before writing it with the value observed (first read wins; later
//     reads cannot differ under eager conflict detection), in first-read
//     order. writes holds each word written with its committed value, in
//     first-write order. Words are distinct within each slice. Both
//     slices are the committer's own tables, borrowed for the call: the
//     observer must neither modify nor retain them.
//   - OnStore fires for every other committed-memory mutation: a
//     nontransactional store or CAS (including those issued from inside a
//     transaction — they are immediate and survive aborts) and plain
//     stores outside any atomic section.
//
// Note that an irrevocable section's plain stores reach simulated memory
// immediately but are reported atomically at the section's end: a
// serializability checker that applies them to its shadow copy at the
// OnCommit point will observe exactly the divergence a broken fallback
// lock protocol creates, which is the point.
type TxObserver interface {
	OnCommit(core int, irrevocable bool, tag any, reads, writes []mem.Word)
	OnStore(core int, addr mem.Addr, val uint64)
}

// SetObserver installs a transaction observer. Call before Run; nil (the
// default) disables all logging.
func (m *Machine) SetObserver(o TxObserver) {
	if m.ran {
		panic("htm: SetObserver after Run")
	}
	m.observer = o
}

// SetOpTag attaches an opaque operation descriptor to the core's current
// atomic section; it is handed to the observer's OnCommit and then
// cleared. Workload bodies use it to tell the serializability oracle
// which logical operation each commit performed. With no observer
// installed the call does nothing, but a caller passing a value that is
// not pointer-shaped has already boxed it into the interface, one heap
// allocation per tag.
func (c *Core) SetOpTag(tag any) {
	if c.m.observer != nil {
		c.opTag = tag
	}
}

// obsRead logs the first external read of a word by the active atomic
// section (transactional or irrevocable). Words the section has already
// written are internal reads and never logged.
func (c *Core) obsRead(word mem.Addr, val uint64) {
	if _, wrote := c.obsWrites.Get(word); wrote {
		return
	}
	if _, seen := c.obsReads.Get(word); seen {
		return
	}
	c.obsReads.Put(word, val)
}

// obsBeginSection resets the read/write logs for a new atomic section.
func (c *Core) obsBeginSection() {
	if c.m.observer == nil {
		return
	}
	c.obsOn = true
	c.obsReads.Reset()
	c.obsWrites.Reset()
}

// obsEndSection stops logging and reports the section's atomicity point.
// For hardware transactions the write set is the commit-published write
// buffer; irrevocable sections accumulated obsWrites as their plain
// stores executed.
func (c *Core) obsEndSection(irrevocable bool, writes []mem.Word) {
	c.obsOn = false
	c.ReportAtomic(irrevocable, c.obsReads.Words(), writes)
}
