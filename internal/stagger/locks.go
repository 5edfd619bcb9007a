package stagger

import (
	"repro/internal/htm"
	"repro/internal/mem"
)

// Advisory locks live in ordinary simulated memory but are only ever
// touched with nontransactional loads and stores, so acquiring, spinning
// on, or releasing one never joins any transaction's speculative set —
// the isolation escape the paper requires from the hardware. Each lock
// record occupies its own cache line: word 0 is the owner word (owner+1,
// or 0 when free), word 1 is a contention flag set by waiters. A word
// orphaned by a holder that never released costs each waiter a
// LockTimeout and nothing else: the locks are advisory, and a waiter that
// gives up proceeds on the HTM's own conflict detection (Section 2).

// lockFor maps a data address to its advisory lock word (a static set of
// pre-allocated locks selected by address hash, as in AcquireLockFor).
func (rt *Runtime) lockFor(a mem.Addr) mem.Addr {
	line := uint64(mem.LineOf(a)) / mem.LineSize
	idx := hash64(line) & uint64(rt.cfg.NumLocks-1)
	return rt.locksBase + mem.Addr(idx)*mem.LineSize
}

// acquireLockFor blocks (with timeout) until the advisory lock chosen by
// addr is held by this transaction. Waiting advances only virtual time;
// the spin uses nontransactional loads so the eventual release by the
// owner cannot abort us.
func (th *Thread) acquireLockFor(addr mem.Addr) {
	rt := th.rt
	// Lock-acquire ordering is a pure scheduling decision point: under an
	// adversarial scheduler the engine may hand the token to a competing
	// core right here, exploring acquisition races the fixed
	// minimum-virtual-time order can never produce.
	th.c.SchedPoint()
	lock := rt.lockFor(addr)
	deadline := th.c.Now() + rt.cfg.LockTimeout
	announced := false
	for {
		if th.c.NTLoad(lock) == 0 && th.c.NTCas(lock, 0, uint64(th.c.ID())+1) {
			th.lock, th.lockAt = lock, th.c.Now()
			rt.Metrics.LocksAcquired++
			th.abc.m.Locks++
			th.c.Annotate(htm.TraceLockAcquire, lock)
			return
		}
		if !announced {
			// Tell the holder someone waited, so its commit knows the
			// lock was contended.
			th.c.NTStore(lock+mem.WordSize, 1)
			announced = true
		}
		if th.c.Now() >= deadline {
			rt.Metrics.LockTimeouts++
			return // proceed without the lock (purely advisory)
		}
		th.c.SpinWait(rt.cfg.LockSpin, htm.WaitLock)
	}
}

// lockContended reports whether any thread waited on the held lock.
func (th *Thread) lockContended() bool {
	return th.lock != 0 && th.c.NTLoad(th.lock+mem.WordSize) != 0
}

// releaseLock frees the held advisory lock, if any, clearing the
// contention flag for the next holding period. When the machine's fault
// injector is also a LockFaults hook, the release may be lost ("the
// holder died"), leaving the stale word for every waiter to time out
// against.
func (th *Thread) releaseLock() {
	if th.lock == 0 {
		return
	}
	rt := th.rt
	// Release ordering is a decision point too: who runs between a
	// release and the next acquisition decides which waiter wins.
	th.c.SchedPoint()
	rt.Metrics.LockHoldCycles += th.c.Now() - th.lockAt
	// The annotation marks the end of this core's holding period even
	// when the release itself is dropped by a fault — the exporter needs
	// every hold interval closed.
	th.c.Annotate(htm.TraceLockRelease, th.lock)
	if rt.lockFaults == nil || !rt.lockFaults.DropLockRelease(th.c.ID()) {
		th.c.NTStore(th.lock+mem.WordSize, 0)
		th.c.NTStore(th.lock, 0)
	}
	th.lock = 0
}
