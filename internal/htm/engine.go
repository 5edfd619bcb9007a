package htm

import (
	"iter"
	"runtime"
)

// The engine serializes all globally visible events of the simulated
// cores by virtual time. Exactly one core runs at any moment: a single
// logical token is handed from core to core, always to the runnable core
// with the smallest virtual clock (ties broken by core ID), or — with a
// Scheduler installed — to an adversarially chosen core inside the
// scheduler's virtual-time window. Compute-only work advances a core's
// local clock without involving the engine, so the handoff cost is paid
// only on memory events.

// coopEngine is the engine: a cooperative scheduler in which exactly one
// participant runs at any moment — a simulated core, each a resumable
// coroutine (iter.Pull), or the run loop on the caller's goroutine. The Go
// scheduler is never involved between events: a token handoff is one
// direct coroutine switch, and the common case (the holder keeps the
// token) is a single comparison with no switch at all. No channel or
// mutex guards engine state: every field is only touched by the running
// participant, and the coroutine switches order consecutive ones.
//
// Rendezvous. An iter.Pull coroutine's resume (next) and park (yield) do
// the same thing underneath: switch to whichever goroutine is suspended
// in that coroutine and suspend the caller there in its place. iter.Pull
// forbids only simultaneous calls, not calls from a goroutine other than
// the coroutine's own, so any core can wake any other in one switch. The
// engine records where each participant is suspended — which coroutine,
// and on which side: inside its resume (caller side) or inside its park
// or not yet started (body side) — and wakes the winner through the
// opposite side of that coroutine, taking the winner's place there.
// When a core's body returns, its coroutine wakes whoever is suspended in
// it; that participant retires the core and hands the token on. The run
// loop is never granted the token, so only an exit wakes it, and the last
// exit always does: by then it is the only participant left.
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
// event by the holder is keep, a single comparison of its new key
// against it, inlined into Core.event: the holder keeps the token and
// its event batch continues, without any call or coroutine switch,
// unless its new time actually loses the virtual-time race. Only then
// does handoff run, out of line. Events are thereby batched per token
// tenure: a tenure's whole run of events costs the one switch that ends
// it, however long it is. With a Scheduler installed the
// comparison is against zero, which nothing passes, so every event asks
// handoff, and handoff asks the scheduler.
//
// Determinism. Decision points occur in a fixed order (start, every
// event while a scheduler is installed, every finish), so a recorded
// schedule replays bit-identically. A scheduler that always picks the
// smallest clock (as an exhausted replay does) spells the default rule
// through next's candidate scan instead of keep; the two agree on every
// program that makes no SchedPoint calls (internal/htm/equivalence and
// FuzzEngineHandoff check it).
type coopEngine struct {
	// key[i] is core i's packed scheduling key (see above).
	key     []uint64
	pending int

	// othersKey is the smallest key among the cores other than the token
	// holder, doneKey when no other core is runnable: recomputed once per
	// grant, read by keep at every event. With a scheduler installed it
	// stays 0, so keep never passes.
	othersKey uint64

	// sched, when non-nil, replaces the smallest-virtual-time rule with an
	// adversarial choice among the runnable cores inside the scheduler's
	// virtual-time window (see sched.go); window is its Window(), read
	// once. cand/candT are reused scratch.
	sched  Scheduler
	window uint64
	cand   []int
	candT  []uint64

	// granted is the core that must run next; grant sets it before
	// control is transferred to it (see dispatch).
	granted int
	// Coroutine c runs core c's body. resume[c] enters it from the caller
	// side and park[c] (the body's yield) from the body side; either
	// returns when a participant switches back through c, false if c's
	// body returned instead.
	resume []func() (struct{}, bool)
	park   []func(struct{}) bool
	// at[p] is the coroutine participant p — core p, or the run loop at
	// index len(key) — is suspended in, and caller[p] whether it waits on
	// that coroutine's caller side. A core not yet started waits on the
	// body side of its own coroutine.
	at     []int
	caller []bool
	// goexit is set when a body called runtime.Goexit (t.FailNow in a
	// test): every participant an exit then wakes unwinds too, so the
	// Goexit reaches Run's caller.
	goexit bool

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
	if sched != nil {
		e.othersKey, e.window = 0, sched.Window()
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
	limit := keyTime(best) + e.window
	for i, k := range e.key {
		if k == doneKey {
			continue
		}
		if t := keyTime(k); e.window == 0 || t <= limit {
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
// cores is recomputed for keep (unless a scheduler decides every event),
// and dispatch is told to wake it. Callers must have chosen id via next()
// (or keep's recorded othersKey, which is provably the same choice).
func (e *coopEngine) grant(id int) {
	if e.sched == nil {
		e.othersKey = minKeyExcept(e.key, id)
	}
	e.granted = id
}

// keep is the first half of the engine's check at a globally visible
// event by core id (the token holder) at virtual time t: it records the
// core's new key and reports whether the core keeps the token, which it
// does while its key is below every other runnable core's (with none,
// othersKey is doneKey and it trivially does). It is small enough to be
// inlined into Core.event, so an uncontended event makes no call.
func (e *coopEngine) keep(id int, t uint64) bool {
	e.counts.Syncs++
	k := packKey(id, t)
	e.key[id] = k
	return k < e.othersKey
}

// handoff is the second half, for an event keep did not pass: it picks
// the next holder, switches to it, and returns when id holds the token
// again. With a scheduler installed the scheduler may pick id itself,
// and then nothing moves.
func (e *coopEngine) handoff(id int) {
	if e.sched == nil {
		// The winner is, by the tie-break in the key's low bits, exactly
		// the recorded other-minimum core.
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

// dispatch hands the token from participant p to the granted core and
// returns when p holds it again — for the run loop, when every core has
// finished. It wakes the winner through the opposite side of the
// coroutine the winner is suspended in and suspends p there in its
// place: one coroutine switch per handoff. A wake with alive == false
// means the body of that coroutine returned: p retires the core and,
// unless it was the last or next chose p itself, hands the token on.
func (e *coopEngine) dispatch(p int) {
	for e.granted != p {
		w := e.granted
		c, side := e.at[w], e.caller[w]
		e.at[p], e.caller[p] = c, !side
		e.counts.Switches++
		var alive bool
		if side {
			alive = e.park[c](struct{}{})
		} else {
			_, alive = e.resume[c]()
		}
		if alive {
			continue // woken by a grant: granted == p
		}
		if e.goexit {
			runtime.Goexit()
		}
		e.counts.Switches++ // the body exit that woke p
		if e.coreDone(c); e.pending == 0 {
			return
		}
	}
}

// coreDone marks core w's body as returned and, unless it was the last,
// grants the token to the next holder.
func (e *coopEngine) coreDone(w int) {
	e.key[w] = doneKey
	e.pending--
	if e.pending > 0 {
		e.grant(e.next())
	}
}

// run executes one body per core to completion: it chooses the first
// holder, builds one coroutine per core and waits in dispatch until the
// last body returns. A core runs only while it holds the token, so all
// simulation state keeps the exclusive-holder discipline without locks
// or channels. panics[i] receives the panic value raised by body i, if
// any; run itself only panics on engine bugs. On return every core has
// finished and its FinalClock is recorded, and every coroutine has ended
// with its body, so none needs iter.Pull's stop.
func (e *coopEngine) run(m *Machine, bodies []func(*Core), panics []any) {
	n := len(bodies)
	e.grant(e.next()) // start: choose the first holder
	e.resume = make([]func() (struct{}, bool), n)
	e.park = make([]func(struct{}) bool, n)
	e.at, e.caller = make([]int, n+1), make([]bool, n+1)
	for i, body := range bodies {
		c := m.cores[i]
		e.at[i] = i
		e.resume[i], _ = iter.Pull(func(yield func(struct{}) bool) {
			// The coroutine body runs lazily: the first resume — which is
			// the engine's first grant to this core — starts it, so no
			// initial park is needed.
			e.park[c.id] = yield
			returned := false
			// A panicking body must still hand back the token; the panic
			// value is re-raised in the caller's goroutine by RunChecked.
			defer func() {
				if r := recover(); r != nil {
					panics[c.id] = r
					if c.inTx {
						c.clearTx()
					}
				} else if !returned {
					e.goexit = true
				}
				c.stats.FinalClock = c.clock
			}()
			body(c)
			returned = true
			if c.inTx {
				panic("htm: thread body returned inside a transaction")
			}
		})
	}
	e.dispatch(n)
}
