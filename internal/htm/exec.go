package htm

import "math/rand"

// This file implements the base HTM runtime loop used by every system in
// the evaluation: try a hardware transaction up to MaxRetries times with
// polite backoff between attempts, then fall back to irrevocable mode
// under a global lock. Hardware transactions subscribe to the global lock
// immediately before committing, exactly as in Section 6 of the paper.

// AtomicOpts configures the software retry loop around a transaction.
type AtomicOpts struct {
	// MaxRetries is the number of hardware attempts before irrevocable
	// fallback (0: the paper's 10).
	MaxRetries int
	// BackoffBase is the base backoff quantum in cycles (0: 64); the mean
	// backoff before retry k is proportional to k ("Polite" policy).
	BackoffBase uint64
	// RuntimePC is the synthetic PC attributed to the runtime's own
	// transactional accesses (the global-lock subscription).
	RuntimePC uint64
}

// DefaultAtomicOpts matches the paper's runtime parameters.
func DefaultAtomicOpts() AtomicOpts {
	return AtomicOpts{RuntimePC: 0xFFF0}.WithDefaults()
}

// WithDefaults returns o with an unset retry budget and backoff quantum
// replaced by the paper's (10 attempts, 64 cycles).
func (o AtomicOpts) WithDefaults() AtomicOpts {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 10
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = 64
	}
	return o
}

// Backoff is the retry policy: after failed attempt number attempt (from
// 0) the core stalls for mean/2 plus a jitter drawn uniformly from
// [0, mean), where mean is linear in the retry count (Scherer & Scott's
// Polite, as in the paper's runtime). rng is the caller's seeded stream
// (the core's own in Core.Atomic, a software backend's its own); o must
// have its defaults applied.
func (c *Core) Backoff(o AtomicOpts, attempt int, rng *rand.Rand) {
	mean := o.BackoffBase * uint64(attempt+1)
	c.SpinWait(mean/2+uint64(rng.Int63n(int64(mean))), WaitBackoff)
}

// TxHooks let a higher-level runtime (e.g. the staggered-transactions
// runtime) observe and steer the retry loop. Any hook may be nil.
type TxHooks struct {
	// OnBegin runs before each hardware attempt (attempt counts from 0).
	OnBegin func(attempt int)
	// OnAbort runs after an aborted attempt with the architectural abort
	// status.
	OnAbort func(info AbortInfo, attempt int)
	// OnCommit runs after the transaction has committed; irrevocable
	// reports whether it ran under the global lock.
	OnCommit func(irrevocable bool)
	// OnIrrevocable runs just before the body executes irrevocably.
	OnIrrevocable func()
}

// Atomic runs body atomically: speculatively when possible, irrevocably
// under the global lock after MaxRetries failed attempts. The body may be
// re-executed many times and must therefore be idempotent apart from its
// transactional effects (the usual TM contract).
func (c *Core) Atomic(opts AtomicOpts, hooks TxHooks, body func(*Core)) {
	opts = opts.WithDefaults()
	for attempt := 0; attempt < opts.MaxRetries; attempt++ {
		c.waitGlobalFree()
		if hooks.OnBegin != nil {
			hooks.OnBegin(attempt)
		}
		info, ok := c.tryTx(opts.RuntimePC, body)
		if ok {
			if hooks.OnCommit != nil {
				hooks.OnCommit(false)
			}
			return
		}
		if hooks.OnAbort != nil {
			hooks.OnAbort(info, attempt)
		}
		c.Backoff(opts, attempt, c.rand())
	}
	// Irrevocable fallback: acquire the global lock nontransactionally
	// and run the body in place. Hardware transactions racing with us
	// either see the lock held when they subscribe (AbortLockHeld) or are
	// aborted by our CAS on the lock line / our plain stores.
	c.acquireGlobal()
	if hooks.OnIrrevocable != nil {
		hooks.OnIrrevocable()
	}
	c.inAttempt = true
	c.inIrrev = true
	c.obsBeginSection()
	c.Annotate(TraceIrrevBegin, 0)
	start := c.clock
	c.attemptWait = 0
	body(c)
	c.stats.Commits++
	c.stats.IrrevocableCommits++
	c.stats.UsefulTxCycles += c.clock - start - c.attemptWait
	c.obsEndSection(true, c.obsWrites.Words())
	c.Annotate(TraceIrrevEnd, 0)
	c.inIrrev = false
	c.inAttempt = false
	c.releaseGlobal()
	if hooks.OnCommit != nil {
		hooks.OnCommit(true)
	}
}

// tryTx runs one hardware attempt, converting the abort unwind into a
// normal return.
func (c *Core) tryTx(runtimePC uint64, body func(*Core)) (info AbortInfo, ok bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ta, isAbort := r.(*txAbort)
		if !isAbort {
			// A real workload bug: clean the machine state so the panic
			// surfaces intelligibly, then rethrow.
			if c.inTx {
				c.clearTx()
			}
			panic(r)
		}
		info = ta.info
		ok = false
	}()
	c.TxBegin()
	body(c)
	// Subscribe to the global lock: add it to the read set and verify it
	// is free, so an irrevocable writer serializes against our commit.
	if c.Load(runtimePC, 0, c.m.GlobalLock) != 0 {
		c.abortSelf(AbortInfo{Reason: AbortLockHeld, ByCore: c.id})
	}
	c.TxCommit()
	return AbortInfo{}, true
}

// waitGlobalFree spins (nontransactionally) until the global lock is free.
func (c *Core) waitGlobalFree() {
	for c.NTLoad(c.m.GlobalLock) != 0 {
		c.SpinWait(50, WaitGlobal)
	}
}

// acquireGlobal takes the irrevocable global lock.
func (c *Core) acquireGlobal() {
	for {
		if c.NTLoad(c.m.GlobalLock) == 0 && c.NTCas(c.m.GlobalLock, 0, uint64(c.id)+1) {
			return
		}
		c.SpinWait(50, WaitGlobal)
	}
}

// releaseGlobal drops the irrevocable global lock.
func (c *Core) releaseGlobal() {
	c.NTStore(c.m.GlobalLock, 0)
}
