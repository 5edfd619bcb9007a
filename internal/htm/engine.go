package htm

// The engine serializes all globally visible events of the simulated
// cores by virtual time. Exactly one core runs at any moment: a single
// logical token is handed from core to core, always to the runnable core
// with the smallest virtual clock (ties broken by core ID), or — with a
// Scheduler installed — to an adversarially chosen core inside the
// scheduler's virtual-time window. Compute-only work advances a core's
// local clock without involving the engine, so the handoff cost is paid
// only on memory events.
//
// Two implementations exist behind the newEngine factory:
//
//   - coopEngine (the default): a single-goroutine cooperative scheduler.
//     Each core is a resumable coroutine; one engine loop on the caller's
//     goroutine resumes the token holder and regains control when the
//     holder yields. No channels and no goroutine wakeups anywhere on the
//     hot path — a handoff is a direct coroutine switch — and the pick
//     rule is an unsigned minimum over one packed clock<<5|id key per
//     core, so the tie-break is part of the comparison.
//   - refEngine (Config.RefEngine): the original goroutine-per-core
//     channel lock-step engine with a full minimum scan at every sync,
//     retained verbatim as the differential oracle. The equivalence suite
//     (internal/htm/equivalence, FuzzEngineHandoff) proves the two agree
//     cycle-for-cycle on traces, statistics, and final memory.
//
// The token discipline means engine state needs no mutex in either
// implementation: every field is only touched by the token holder (or the
// engine loop between holders), and the resume/park points provide the
// happens-before edges between consecutive holders.

// engine is the token-handoff contract shared by both implementations.
type engine interface {
	// run executes one body per core to completion. panics[i] receives the
	// panic value raised by body i, if any; run itself only panics on
	// engine bugs. On return every core has finished and its FinalClock is
	// recorded.
	run(m *Machine, bodies []func(*Core), panics []any)
	// sync is called by core id (the token holder) when its clock has
	// reached t and it is about to perform a globally visible event. It
	// returns when the core is again the chosen runnable core, possibly
	// after handing the token around; on return the caller may perform its
	// event atomically.
	sync(id int, t uint64)
}

// newEngine is the single factory for token engines. All engine
// construction MUST go through it so the Config.RefEngine differential
// oracle can never be silently bypassed; staggervet's refengine analyzer
// enforces this statically.
func newEngine(n int, sched Scheduler, ref bool) engine {
	if ref {
		return newRefEngine(n, sched)
	}
	return newCoopEngine(n, sched)
}
