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

// Thread returns the per-thread context for core tid, creating it on
// first use.
func (rt *Runtime) Thread(tid int) backend.Thread {
	if rt.threads[tid] == nil {
		rt.threads[tid] = &Thread{rt: rt, tid: tid}
	}
	return rt.threads[tid]
}

// Thread is the per-thread OCC state: one reusable access context and
// a deterministic backoff PRNG seeded from the machine seed and thread
// ID (the simulated-state randomness the arena contract requires).
type Thread struct {
	rt  *Runtime
	tid int
	ctx Ctx
	rng *rand.Rand
}

func (th *Thread) rand() *rand.Rand {
	if th.rng == nil {
		th.rng = rand.New(rand.NewSource(th.rt.m.Config().Seed*48271 + int64(th.tid)*69621 + 11))
	}
	return th.rng
}

// Atomic executes body as one OCC transaction on core c: optimistic
// attempts with commit-time validation, then the locked fallback.
func (th *Thread) Atomic(c *htm.Core, ab *prog.AtomicBlock, body func(backend.Ctx)) {
	if c.ID() != th.tid {
		panic("occ: thread used on wrong core")
	}
	tc := &th.ctx
	tc.rt, tc.c = th.rt, c
	c.SetABTag(ab.ID)
	defer c.SetABTag(0)
	for attempt := 0; attempt < th.rt.retry.MaxRetries; attempt++ {
		tc.beginAttempt()
		c.SWTxBegin()
		body(tc)
		th.acquireCommitLock(c)
		if tc.validate(c) {
			tc.publish(c, false)
			th.releaseCommitLock(c)
			c.SWTxCommit(false)
			return
		}
		th.releaseCommitLock(c)
		c.SWTxAbort(htm.AbortConflict)
		c.Backoff(th.rt.retry, attempt, th.rand())
	}
	// Locked fallback: run the body while holding the commit lock, so
	// no concurrent commit can invalidate it — publication without
	// validation, guaranteed progress, counted as irrevocable.
	th.acquireCommitLock(c)
	tc.beginAttempt()
	c.SWTxBegin()
	body(tc)
	tc.publish(c, true)
	th.releaseCommitLock(c)
	c.SWTxCommit(true)
}

// acquireCommitLock spins on the commit lock with nontransactional
// CASes; lock waiting lands in the WaitLock stall category, outside
// the attempt's useful/wasted split.
func (th *Thread) acquireCommitLock(c *htm.Core) {
	for !c.NTCas(th.rt.lockAddr, 0, uint64(c.ID())+1) {
		c.SpinWait(lockSpin, htm.WaitLock)
	}
}

func (th *Thread) releaseCommitLock(c *htm.Core) {
	c.NTStore(th.rt.lockAddr, 0)
}

// Ctx is the OCC access context: the software read set (word → value
// first observed) and write buffer (word → pending value) of one
// atomic-block instance. It implements backend.Ctx.
type Ctx struct {
	rt *Runtime
	c  *htm.Core

	reads, writes mem.WordSet
}

// beginAttempt clears the read and write sets for a fresh attempt.
func (t *Ctx) beginAttempt() {
	t.reads.Reset()
	t.writes.Reset()
}

// Core returns the simulated core, for nontransactional side channels.
func (t *Ctx) Core() *htm.Core { return t.c }

// Op attaches the operation descriptor reported to the oracle at this
// instance's serialization point.
func (t *Ctx) Op(tag any) { t.c.SetOpTag(tag) }

// Compute models n µ-ops of non-memory work inside the block.
func (t *Ctx) Compute(uops int) { t.c.Compute(uops) }

// Load performs the OCC load of site s at address a: own pending write
// if buffered, otherwise committed memory, logging the first read of
// each word. Repeated reads of a tracked word return the logged value,
// so one attempt never observes two versions of the same word.
func (t *Ctx) Load(s *prog.Site, a mem.Addr) uint64 {
	t.c.Compute(1) // read-set bookkeeping
	word := mem.WordOf(a)
	if v, ok := t.writes.Get(word); ok {
		return v
	}
	if v, ok := t.reads.Get(word); ok {
		return v
	}
	v := t.c.NTLoad(a)
	t.reads.Put(word, v)
	return v
}

// Store buffers the OCC store of site s in the write set.
func (t *Ctx) Store(s *prog.Site, a mem.Addr, v uint64) {
	t.c.Compute(1) // write-buffer bookkeeping
	t.writes.Put(mem.WordOf(a), v)
}

// validate re-reads every read-set word under the commit lock and
// compares values: equality proves the whole read set is simultaneously
// valid now, making this the attempt's serialization point.
func (t *Ctx) validate(c *htm.Core) bool {
	for _, r := range t.reads.Words() {
		if c.NTLoad(r.Addr) != r.Val {
			return false
		}
	}
	return true
}

// publish reports the serialization point to the observer (shadow state
// still pre-publication, matching what validation checked) and then
// publishes the write set as one atomic batch.
func (t *Ctx) publish(c *htm.Core, irrevocable bool) {
	c.ReportAtomic(irrevocable, t.reads.Words(), t.writes.Words())
	c.NTStoreBatch(t.writes.Words())
}
