// Package sched provides adversarial schedulers for the htm engine, plus
// recording, replay, and minimization of the schedules they produce.
//
// The htm engine's baseline rule — always run the runnable core with the
// smallest virtual clock — yields exactly one interleaving per (program,
// seed). The schedulers here widen that to a searchable space: at every
// globally visible event the engine offers the set of candidate cores
// (those within the scheduler's virtual-time window of the minimum clock)
// and the scheduler picks one. Each such pick is a decision; the sequence
// of decisions is a complete, portable description of the schedule, which
// is what makes record/replay and delta-debugging minimization possible.
//
// Three strategies are provided:
//
//   - Random: uniform choice among candidates, seeded. The cheap baseline
//     explorer; good at shallow races.
//   - PCT: the priority-based probabilistic concurrency testing algorithm
//     (Burckhardt et al., ASPLOS 2010) adapted to virtual-time candidates.
//     Cores get random distinct priorities; the highest-priority candidate
//     always runs; at d-1 pre-sampled decision indices the running core's
//     priority is demoted below everyone else's. For a bug of depth d
//     (one needing d ordering constraints), PCT finds it with probability
//     >= 1/(n * k^(d-1)) per run — far better than uniform random for
//     small d.
//   - Replay: consumes a recorded decision sequence verbatim, then falls
//     back to the deterministic minimum-time rule. Truncated sequences
//     (the minimizer's output) therefore still define complete schedules.
package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/htm"
)

// DefaultWindow is the default virtual-time candidate window in cycles.
// It must be comfortably larger than one spin-poll iteration (~50 cycles
// plus a memory access) so adversarial choices exist at lock handoffs, and
// small enough that a spinning core soon drifts out of the candidate set,
// which is what guarantees liveness under adversarial priorities.
const DefaultWindow = 4096

// PCTHorizon is the decision-count horizon from which PCT's priority
// change points are sampled. Runs longer than the horizon keep their final
// priority assignment; runs shorter simply never reach the later change
// points. 100k decisions covers every workload in this repo at the default
// exploration op counts.
const PCTHorizon = 100_000

// Spec is a parsed scheduler specification string. The accepted grammar:
//
//	random            seeded uniform choice
//	pct:<d>           PCT with depth d (d >= 1)
//	replay:<file>     replay a recorded trace file
//	<any>@<window>    override the candidate window in cycles (0 = unbounded)
//
// e.g. "pct:3", "random@8192", "replay:fail.trace".
type Spec struct {
	Kind   string // "random", "pct", or "replay"
	Depth  int    // PCT depth (Kind == "pct")
	File   string // trace path (Kind == "replay")
	Window uint64
}

// Parse parses a scheduler specification string.
func Parse(s string) (Spec, error) {
	spec := Spec{Window: DefaultWindow}
	if i := strings.LastIndex(s, "@"); i >= 0 {
		w, err := strconv.ParseUint(s[i+1:], 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("sched: bad window in %q: %v", s, err)
		}
		spec.Window = w
		s = s[:i]
	}
	switch {
	case s == "random":
		spec.Kind = "random"
	case strings.HasPrefix(s, "pct:"):
		d, err := strconv.Atoi(s[len("pct:"):])
		if err != nil || d < 1 {
			return Spec{}, fmt.Errorf("sched: bad pct depth in %q", s)
		}
		spec.Kind, spec.Depth = "pct", d
	case strings.HasPrefix(s, "replay:"):
		f := s[len("replay:"):]
		if f == "" {
			return Spec{}, fmt.Errorf("sched: empty replay file in %q", s)
		}
		spec.Kind, spec.File = "replay", f
	default:
		return Spec{}, fmt.Errorf("sched: unknown scheduler %q (want random, pct:<d>, or replay:<file>)", s)
	}
	return spec, nil
}

// String renders the spec back into the grammar Parse accepts.
func (s Spec) String() string {
	var b strings.Builder
	switch s.Kind {
	case "pct":
		fmt.Fprintf(&b, "pct:%d", s.Depth)
	case "replay":
		fmt.Fprintf(&b, "replay:%s", s.File)
	default:
		b.WriteString(s.Kind)
	}
	if s.Window != DefaultWindow {
		fmt.Fprintf(&b, "@%d", s.Window)
	}
	return b.String()
}

// New instantiates the specified scheduler. seed drives the random and PCT
// strategies; cores is the thread count (PCT needs it for its priority
// range). Replay specs read their trace file here.
func (s Spec) New(seed int64, cores int) (htm.Scheduler, error) {
	switch s.Kind {
	case "random":
		return NewRandom(seed, s.Window), nil
	case "pct":
		return NewPCT(seed, cores, s.Depth, s.Window), nil
	case "replay":
		t, err := ReadTraceFile(s.File)
		if err != nil {
			return nil, err
		}
		w := s.Window
		if w == DefaultWindow && t.Window != 0 {
			// Fidelity: unless the spec overrides it, replay under the
			// window the schedule was recorded with.
			w = t.Window
		}
		return NewReplay(t.Picks, w), nil
	default:
		return nil, fmt.Errorf("sched: unknown kind %q", s.Kind)
	}
}

// Random picks uniformly among the candidate cores.
type Random struct {
	rng    *rand.Rand
	window uint64
}

// NewRandom returns a seeded uniform scheduler.
func NewRandom(seed int64, window uint64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed)), window: window}
}

func (r *Random) Pick(runnable []int, times []uint64) int { return r.rng.Intn(len(runnable)) }

func (r *Random) Window() uint64 { return r.window }

// PCT is a probabilistic concurrency testing scheduler: random distinct
// per-core priorities, highest-priority candidate wins, and d-1 priority
// change points sampled over PCTHorizon decisions at which the chosen
// core's priority is demoted below all initial priorities.
type PCT struct {
	window    uint64
	prio      []int    // per-core priority, all distinct
	change    []uint64 // ascending decision indices of the change points
	nextDemot int      // next demotion priority to hand out (d-2 .. 0)
	decisions uint64
}

// NewPCT returns a PCT scheduler of depth d for the given core count.
func NewPCT(seed int64, cores, d int, window uint64) *PCT {
	rng := rand.New(rand.NewSource(seed))
	p := &PCT{window: window, prio: make([]int, cores), nextDemot: d - 2}
	// Initial priorities: a random permutation of [d, d+cores).
	for i, v := range rng.Perm(cores) {
		p.prio[i] = d + v
	}
	// d-1 distinct change points in [1, PCTHorizon].
	p.change = make([]uint64, 0, max(d-1, 0))
	for len(p.change) < d-1 {
		if k := uint64(rng.Int63n(PCTHorizon)) + 1; !slices.Contains(p.change, k) {
			p.change = append(p.change, k)
		}
	}
	for i := 1; i < len(p.change); i++ { // insertion sort; d is tiny
		for j := i; j > 0 && p.change[j] < p.change[j-1]; j-- {
			p.change[j], p.change[j-1] = p.change[j-1], p.change[j]
		}
	}
	return p
}

func (p *PCT) Pick(runnable []int, times []uint64) int {
	p.decisions++
	best := 0
	for i := 1; i < len(runnable); i++ {
		if p.prio[runnable[i]] > p.prio[runnable[best]] {
			best = i
		}
	}
	if len(p.change) > 0 && p.decisions >= p.change[0] {
		p.change = p.change[1:]
		// Demote the core that just ran below every initial priority.
		// Demotion priorities are distinct (d-2 down to 0), keeping the
		// whole priority vector collision-free.
		p.prio[runnable[best]] = p.nextDemot
		p.nextDemot--
	}
	return best
}

func (p *PCT) Window() uint64 { return p.window }

// Replay feeds back a recorded decision sequence. When the sequence is
// exhausted it falls back to the minimum-time candidate (the engine's
// baseline rule), so a truncated prefix still defines a complete,
// deterministic schedule — the property the minimizer relies on.
type Replay struct {
	picks  []uint32
	pos    int
	window uint64
}

// NewReplay returns a scheduler that replays picks.
func NewReplay(picks []uint32, window uint64) *Replay {
	return &Replay{picks: picks, window: window}
}

func (r *Replay) Pick(runnable []int, times []uint64) int {
	if r.pos < len(r.picks) {
		k := int(r.picks[r.pos])
		r.pos++
		return k // engine reduces out-of-range picks modulo len(runnable)
	}
	best := 0
	for i := 1; i < len(runnable); i++ {
		if times[i] < times[best] {
			best = i
		}
	}
	return best
}

func (r *Replay) Window() uint64 { return r.window }

// Consumed reports how many recorded decisions have been replayed.
func (r *Replay) Consumed() int { return r.pos }

// Recorder wraps a scheduler and records every decision it makes, already
// normalized to a valid candidate index, so the recorded sequence replays
// the run bit-identically through Replay.
type Recorder struct {
	inner htm.Scheduler
	picks []uint32
}

// NewRecorder wraps inner with decision recording.
func NewRecorder(inner htm.Scheduler) *Recorder {
	return &Recorder{inner: inner}
}

// Reset starts recording a new schedule, inner's, over the buffer the
// last one was recorded in: what Picks returned before is overwritten.
func (r *Recorder) Reset(inner htm.Scheduler) {
	r.inner = inner
	r.picks = r.picks[:0]
}

func (r *Recorder) Pick(runnable []int, times []uint64) int {
	k := r.inner.Pick(runnable, times)
	if k < 0 || k >= len(runnable) {
		k = ((k % len(runnable)) + len(runnable)) % len(runnable)
	}
	r.picks = append(r.picks, uint32(k))
	return k
}

func (r *Recorder) Window() uint64 { return r.inner.Window() }

// Picks returns the recorded decision sequence (owned by the recorder).
func (r *Recorder) Picks() []uint32 { return r.picks }
