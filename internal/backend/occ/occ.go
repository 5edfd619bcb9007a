// Package occ implements a software optimistic-concurrency-control
// backend for the concurrency-control arena (package backend), in the
// style of Zhang et al.'s "Optimistic Concurrency Control for
// Real-world Go Programs": no hardware transactions, no timestamps —
// value-based read-set validation at commit under a single commit
// lock.
//
// Execution model, per atomic-block instance:
//
//   - Optimistic phase. The body runs against committed memory with
//     nontransactional loads; every first read of a word is logged with
//     the value observed, every store is buffered in a software write
//     set (reads check the write set first, so the attempt sees its own
//     writes). Both sets are mem.WordSet, the type of the core's own
//     write buffer. Each tracked access charges one µ-op of bookkeeping —
//     the per-access instrumentation cost software TM cannot avoid.
//   - Commit. The committer acquires the global commit lock with a
//     nontransactional CAS, then re-reads every read-set word and
//     compares values. Equality means the attempt's entire read set is
//     simultaneously valid at this instant, so the attempt serializes
//     here (values, not versions — ABA reordering is invisible to a
//     value-based snapshot and harmless to serializability). On
//     success the write set is published as one atomic batch
//     (htm.Core.NTStoreBatch) and the lock drops; on mismatch the lock
//     drops, the attempt counts as an AbortConflict, and the body
//     re-runs after the shared retry policy's backoff
//     (htm.Core.Backoff, drawn on this runtime's own PRNG).
//   - Locked fallback. After MaxRetries failed validations the
//     instance runs once more while holding the commit lock from the
//     start: no writer can race it, validation is unnecessary, and
//     progress is guaranteed. These commits count as irrevocable,
//     mirroring the HTM runtime's global-lock fallback.
//
// A doomed optimistic body can observe an inconsistent multi-word
// snapshot (reads at different times straddling another commit); its
// validation is then guaranteed to fail and the work is wasted — the
// classic OCC hazard, and exactly what the cross-backend wasted-cycles
// comparison measures. Because every publication is atomic in virtual
// time and every committed state is structurally consistent, doomed
// traversals still terminate: once its rivals drain, a reader's next
// attempt validates.
//
// All commits, aborts, and cycle attribution flow through the core's
// software-transaction accounting (htm.Core.SWTxBegin/SWTxCommit/
// SWTxAbort), and every serialization point is reported to the
// machine's observer via htm.Core.ReportAtomic before publication — the
// two sets' Words() as they stand, tagged through Core.SetOpTag — so the
// serializability oracle and internal/obs reports treat OCC runs
// exactly like hardware ones.
package occ

import (
	"math/rand"

	"repro/internal/anchor"
	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

func init() {
	backend.Register(backend.Info{
		Name:     "occ",
		Summary:  "software OCC: buffered writes, value-validated read set, commit-lock publication",
		Software: true,
		New: func(m *htm.Machine, comp *anchor.Compiled, opts backend.Options) (backend.Runtime, error) {
			return New(m, opts), nil
		},
	})
}

// lockSpin is the pause between commit-lock acquisition polls, in
// cycles (the same constant the HTM runtime uses for its global lock).
const lockSpin = 50

// Runtime is one OCC backend instance bound to one machine.
type Runtime struct {
	m *htm.Machine
	// retry is the retry budget and inter-retry backoff policy, shared
	// with the hardware retry loop (htm.Core.Atomic).
	retry htm.AtomicOpts

	// lockAddr is the commit lock: one dedicated cache line holding
	// owner+1, acquired with a nontransactional CAS.
	lockAddr mem.Addr

	threads []*Thread
}

// New builds the OCC runtime. The retry options are the lowering of the
// stagger.Config in opts.StaggerConfig when present (so CLI -retries
// style overrides apply uniformly across backends); only the budget and
// the backoff policy are used.
func New(m *htm.Machine, opts backend.Options) *Runtime {
	rt := &Runtime{
		m:        m,
		lockAddr: m.Alloc.AllocLines(1),
		threads:  make([]*Thread, m.Config().Cores),
	}
	if sc, ok := opts.StaggerConfig.(interface{ RetryLoop() htm.AtomicOpts }); ok {
		rt.retry = sc.RetryLoop()
	}
	rt.retry = rt.retry.WithDefaults()
	return rt
}

// Thread returns the context bound to core tid, creating it on first
// use.
func (rt *Runtime) Thread(tid int) backend.Thread {
	if rt.threads[tid] == nil {
		rt.threads[tid] = &Thread{rt: rt, c: rt.m.Core(tid)}
	}
	return rt.threads[tid]
}

// Thread is the per-thread OCC state and the backend.Ctx its bodies
// receive: the software read set (word → value first observed) and
// write buffer (word → pending value) of the running attempt, cleared at
// every attempt's begin, and a deterministic backoff PRNG seeded from
// the machine seed and core ID (the simulated-state randomness the
// arena contract requires).
type Thread struct {
	rt *Runtime
	c  *htm.Core

	reads, writes mem.WordSet
	rng           *rand.Rand
}

func (th *Thread) rand() *rand.Rand {
	if th.rng == nil {
		th.rng = rand.New(rand.NewSource(th.rt.m.Config().Seed*48271 + int64(th.c.ID())*69621 + 11))
	}
	return th.rng
}

// Atomic executes body as one OCC transaction on the thread's core:
// optimistic attempts with commit-time validation, then the locked
// fallback.
func (th *Thread) Atomic(ab *prog.AtomicBlock, body func(backend.Ctx)) {
	c := th.c
	c.SetABTag(ab.ID)
	defer c.SetABTag(0)
	for attempt := 0; attempt < th.rt.retry.MaxRetries; attempt++ {
		th.beginAttempt()
		c.SWTxBegin()
		body(th)
		th.acquireCommitLock()
		if th.validate() {
			th.publish(false)
			th.releaseCommitLock()
			c.SWTxCommit(false)
			return
		}
		th.releaseCommitLock()
		c.SWTxAbort(htm.AbortConflict)
		c.Backoff(th.rt.retry, attempt, th.rand())
	}
	// Locked fallback: run the body while holding the commit lock, so
	// no concurrent commit can invalidate it — publication without
	// validation, guaranteed progress, counted as irrevocable.
	th.acquireCommitLock()
	th.beginAttempt()
	c.SWTxBegin()
	body(th)
	th.publish(true)
	th.releaseCommitLock()
	c.SWTxCommit(true)
}

// acquireCommitLock spins on the commit lock with nontransactional
// CASes; lock waiting lands in the WaitLock stall category, outside
// the attempt's useful/wasted split.
func (th *Thread) acquireCommitLock() {
	for !th.c.NTCas(th.rt.lockAddr, 0, uint64(th.c.ID())+1) {
		th.c.SpinWait(lockSpin, htm.WaitLock)
	}
}

func (th *Thread) releaseCommitLock() {
	th.c.NTStore(th.rt.lockAddr, 0)
}

// beginAttempt clears the read and write sets for a fresh attempt.
func (th *Thread) beginAttempt() {
	th.reads.Reset()
	th.writes.Reset()
}

// Core returns the simulated core, for nontransactional side channels.
func (th *Thread) Core() *htm.Core { return th.c }

// Op attaches the operation descriptor reported to the oracle at this
// instance's serialization point. Without an oracle the call does
// nothing, but a tag that is not pointer-shaped is boxed into the
// interface before the call, so each tagged op still heap-allocates its
// tag.
func (th *Thread) Op(tag any) { th.c.SetOpTag(tag) }

// Compute models n µ-ops of non-memory work inside the block.
func (th *Thread) Compute(uops int) { th.c.Compute(uops) }

// Load performs the OCC load of site s at address a: own pending write
// if buffered, otherwise committed memory, logging the first read of
// each word. Repeated reads of a tracked word return the logged value,
// so one attempt never observes two versions of the same word.
func (th *Thread) Load(s *prog.Site, a mem.Addr) uint64 {
	th.c.Compute(1) // read-set bookkeeping
	word := mem.WordOf(a)
	if v, ok := th.writes.Get(word); ok {
		return v
	}
	if v, ok := th.reads.Get(word); ok {
		return v
	}
	v := th.c.NTLoad(a)
	th.reads.Put(word, v)
	return v
}

// Store buffers the OCC store of site s in the write set.
func (th *Thread) Store(s *prog.Site, a mem.Addr, v uint64) {
	th.c.Compute(1) // write-buffer bookkeeping
	th.writes.Put(mem.WordOf(a), v)
}

// validate re-reads every read-set word under the commit lock and
// compares values: equality proves the whole read set is simultaneously
// valid now, making this the attempt's serialization point.
func (th *Thread) validate() bool {
	for _, r := range th.reads.Words() {
		if th.c.NTLoad(r.Addr) != r.Val {
			return false
		}
	}
	return true
}

// publish reports the serialization point to the observer (shadow state
// still pre-publication, matching what validation checked) and then
// publishes the write set as one atomic batch.
func (th *Thread) publish(irrevocable bool) {
	th.c.ReportAtomic(irrevocable, th.reads.Words(), th.writes.Words())
	th.c.NTStoreBatch(th.writes.Words())
}
