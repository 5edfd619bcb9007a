package htm

import "iter"

// coopEngine is the cooperative single-goroutine engine: every simulated
// core is a resumable coroutine (iter.Pull), and one scheduler loop on
// the caller's goroutine resumes whichever core holds the token. The Go
// scheduler is never involved between events — a token handoff is a
// direct coroutine switch, and the common case (the holder keeps the
// token) is a single comparison with no switch at all.
//
// Keys. Each core's scheduling state is one packed word, clock<<5 | id
// (Config.validate caps a machine at 32 cores); a finished core holds
// the all-ones doneKey. Comparing two keys compares clocks first and
// core IDs second, so "smallest virtual time, ties to the smallest core
// ID" is a plain unsigned minimum with the tie-break built into the low
// bits, and a finished core never wins one. (Clocks are cycle counts far
// below 2^59, so the shift loses nothing.)
//
// Hot path. While one core holds the token, every other core's clock is
// frozen — other cores only advance their clocks while *they* hold the
// token. The minimum key among the other cores is therefore a constant
// for the duration of a tenure, so it is computed once per handoff
// (grant: one branch-free min pass over the keys) and every subsequent
// sync by the holder is a single comparison of its new key against it:
// the holder keeps the token and its event batch continues, without any
// coroutine switch, unless its new time actually loses the virtual-time
// race. Events are thereby batched per token tenure: a tenure's whole
// run of events costs one switch in and one switch out, however long it
// is.
//
// Determinism. The pick rule is identical to refEngine's: smallest
// virtual time, ties to the smallest core ID, or the installed
// Scheduler's choice within its window. Decision points occur in the same
// order (start, every losing sync, every finish), so recorded schedules
// replay bit-identically across both engines.
type coopEngine struct {
	// key[i] is core i's packed scheduling key (see above).
	key     []uint64
	pending int

	// othersKey is the smallest key among the cores other than the token
	// holder, doneKey when no other core is runnable. Valid while
	// sched == nil; recomputed once per grant, read on every sync.
	othersKey uint64

	// sched, when non-nil, replaces the smallest-virtual-time rule with an
	// adversarial choice among the runnable cores inside the scheduler's
	// virtual-time window (see sched.go). cand/candT are reused scratch.
	sched Scheduler
	cand  []int
	candT []uint64

	// granted is the core that must run next; grant sets it before
	// control is transferred toward it (see dispatch).
	granted int
	// resume[i] switches into core i's coroutine until it yields or its
	// body returns; stop[i] releases the coroutine. park[i] is core i's
	// yield function, switching back to its resumer.
	resume []func() (struct{}, bool)
	stop   []func()
	park   []func(struct{}) bool
	// chained[i] marks core i as blocked inside a resume call (it handed
	// the token to a parked core by switching into it directly). The
	// suspended coroutines always form a single chain rooted at the run
	// loop; dispatch uses chained to tell whether the granted core can be
	// resumed directly (it is parked outside the chain) or control must
	// unwind to it (it is an ancestor in the chain). depth is the chain's
	// current length.
	chained []bool
	depth   uint64

	// counts is what this run's scheduling cost the host (see
	// EngineStats); Keeps is derived when Machine.Stats reads it.
	counts EngineStats
}

const (
	// keyIDBits is the width of the core ID in a scheduling key.
	keyIDBits = 5
	keyIDMask = 1<<keyIDBits - 1
	// doneKey is the key of a finished core: larger than any live key.
	doneKey = ^uint64(0)
)

// packKey builds core id's scheduling key at virtual time t; keyID and
// keyTime take a live key apart again.
func packKey(id int, t uint64) uint64 { return t<<keyIDBits | uint64(id) }
func keyID(k uint64) int              { return int(k & keyIDMask) }
func keyTime(k uint64) uint64         { return k >> keyIDBits }

func newCoopEngine(n int, sched Scheduler) *coopEngine {
	e := &coopEngine{
		key:       make([]uint64, n),
		pending:   n,
		othersKey: doneKey,
		sched:     sched,
	}
	for i := range e.key {
		e.key[i] = packKey(i, 0)
	}
	return e
}

// minKey returns the smallest of keys, doneKey when every core has
// finished. The loop body is a compare and a conditional move: nothing
// for the branch predictor to miss, whichever core is ahead.
func minKey(keys []uint64) uint64 {
	m := doneKey
	for _, k := range keys {
		m = min(m, k)
	}
	return m
}

// minKeyExcept is minKey over every core but id.
func minKeyExcept(keys []uint64, id int) uint64 {
	own := keys[id]
	keys[id] = doneKey
	m := minKey(keys)
	keys[id] = own
	return m
}

// next returns the core to hand the token to, -1 when none is runnable:
// the minimum-key core by default, or the installed scheduler's choice
// among the cores within its virtual-time window of the minimum.
func (e *coopEngine) next() int {
	best := minKey(e.key)
	if best == doneKey {
		return -1
	}
	if e.sched == nil {
		return keyID(best)
	}
	e.cand, e.candT = e.cand[:0], e.candT[:0]
	window := e.sched.Window()
	limit := keyTime(best) + window
	for i, k := range e.key {
		if k == doneKey {
			continue
		}
		if t := keyTime(k); window == 0 || t <= limit {
			e.cand = append(e.cand, i)
			e.candT = append(e.candT, t)
		}
	}
	if len(e.cand) == 1 {
		return e.cand[0]
	}
	k := e.sched.Pick(e.cand, e.candT)
	if k < 0 || k >= len(e.cand) {
		k = ((k % len(e.cand)) + len(e.cand)) % len(e.cand)
	}
	return e.cand[k]
}

// grant hands the token to core id: the frozen minimum over the other
// cores is recomputed for the fast path, and the engine loop is told to
// resume it. Callers must have chosen id via next() (or the fast path's
// recorded othersKey, which is provably the same choice).
func (e *coopEngine) grant(id int) {
	e.othersKey = minKeyExcept(e.key, id)
	e.granted = id
}

// sync implements engine. The fast path is a single comparison against
// the per-tenure constant — with no other runnable core othersKey is
// doneKey and the holder trivially keeps running; losing the race
// selects the winner and transfers control toward it with as few
// coroutine switches as the chain permits.
func (e *coopEngine) sync(id int, t uint64) {
	e.counts.Syncs++
	k := packKey(id, t)
	e.key[id] = k
	if e.sched == nil {
		if k < e.othersKey {
			return
		}
		// Fast path lost the race: the winner is, by the tie-break in
		// the key's low bits, exactly the recorded other-minimum core.
		e.grant(keyID(e.othersKey))
	} else {
		next := e.next()
		if next == id {
			return
		}
		e.grant(next)
	}
	e.counts.Handoffs++
	e.dispatch(id)
}

// dispatch transfers control from core id toward the granted core and
// returns when id is granted again. A parked winner is resumed by a
// single direct coroutine switch — the common ping-pong handoff costs
// one switch, not a bounce through a central loop. A winner that is an
// ancestor in the chain (blocked in the resume call that eventually led
// here) is reached by yielding, which unwinds one chain level; each
// unwound frame re-enters its own dispatch loop and repeats the choice.
func (e *coopEngine) dispatch(id int) {
	for {
		w := e.granted
		if w == id {
			return
		}
		if e.chained[w] {
			// The winner is an ancestor: park until the token comes back.
			// Cores are only ever resumed when they hold the grant, so on
			// return granted == id.
			e.counts.Parks++
			e.park[id](struct{}{})
			return
		}
		// The winner is parked (or not yet started): switch into it
		// directly, becoming part of the chain until it returns control.
		e.chained[id] = true
		e.depth++
		e.counts.MaxChain = max(e.counts.MaxChain, e.depth)
		e.counts.Resumes++
		_, alive := e.resume[w]()
		e.depth--
		e.chained[id] = false
		if !alive {
			e.coreDone(w)
		}
	}
}

// coreDone marks core w's body as returned and hands the token onward.
// When the last body returns there is no next holder: every other
// coroutine has already unwound, so control is in the run loop, which
// observes pending == 0 and completes the simulation.
func (e *coopEngine) coreDone(w int) {
	e.key[w] = doneKey
	e.pending--
	if e.pending > 0 {
		e.grant(e.next())
	}
}

// run implements engine: it builds one coroutine per core and drives the
// whole simulation from this goroutine. A coroutine is resumed only when
// its core holds the token, so all simulation state keeps the exclusive-
// holder discipline without locks, channels, or extra goroutines.
func (e *coopEngine) run(m *Machine, bodies []func(*Core), panics []any) {
	n := len(bodies)
	e.resume = make([]func() (struct{}, bool), n)
	e.stop = make([]func(), n)
	e.park = make([]func(struct{}) bool, n)
	e.chained = make([]bool, n)
	for i, body := range bodies {
		c, body := m.cores[i], body
		next, stop := iter.Pull(func(yield func(struct{}) bool) {
			// The coroutine body runs lazily: the first resume — which is
			// the engine's first grant to this core — starts it, so no
			// initial park is needed.
			e.park[c.id] = yield
			// A panicking body must still hand back the token; the panic
			// value is re-raised in the caller's goroutine by RunChecked.
			defer func() {
				if r := recover(); r != nil {
					panics[c.id] = r
					if c.inTx {
						c.clearTx()
					}
				}
				c.stats.FinalClock = c.clock
			}()
			body(c)
			if c.inTx {
				panic("htm: thread body returned inside a transaction")
			}
		})
		e.resume[i] = next
		e.stop[i] = stop
	}
	defer func() {
		for _, stop := range e.stop {
			stop()
		}
	}()
	e.grant(e.next()) // start: hand the token to the first chosen core
	for e.pending > 0 {
		// Resume the granted core. Control comes back here only when the
		// directly resumed core's body returns — cores hand the token
		// among themselves via dispatch without bouncing through this
		// loop — and a finished core necessarily still holds the grant.
		w := e.granted
		e.counts.Resumes++
		if _, alive := e.resume[w](); !alive {
			e.coreDone(w)
		}
	}
}
