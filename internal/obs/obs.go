// Package obs is the observability layer over the simulator: it turns
// one run's raw counters and event stream into (a) a deterministic,
// stable-sorted metrics report and (b) a Chrome trace-event timeline
// that Perfetto or chrome://tracing can load.
//
// The layer is strictly read-only and post-hoc: Snapshot derives every
// number from counters the simulation already maintains (htm.CoreStats,
// stagger.Metrics, the per-atomic-block aggregates, and the conflict
// histograms), and the trace exporter consumes the machine's recorded
// event stream. Nothing here issues simulated memory events, so enabling
// observability never changes virtual times, schedules, or statistics —
// the determinism contract the golden-report tests pin down:
//
//   - the same RunConfig produces byte-identical JSON on every run,
//     at any harness worker count (parallelism exists only between
//     runs, never inside one);
//   - JSON field order is fixed by the struct definitions, every
//     collection is a slice sorted by an explicit deterministic rule
//     (never a Go map), and floats are derived from integer counters.
//
// The report answers the paper's attribution questions per run: where
// cycles went (speculative useful, wasted by aborts, advisory-lock
// spin, backoff, global-lock wait, NT lock-manipulation overhead), what
// aborted whom (per-cause counts, per-line and per-anchor conflict
// histograms — Tables 1 and 4), and how the advisory locks behaved
// (acquisitions, hold times, contended commits, timeouts).
package obs

import (
	"fmt"
	"sort"

	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/stagger"
)

// Report is the structured metrics registry for one run. Field order is
// the JSON output order; all slices are stable-sorted by Snapshot.
type Report struct {
	// Identity: which experiment cell produced this report.
	Benchmark string `json:"benchmark"`
	Mode      string `json:"mode"`
	Threads   int    `json:"threads"`
	Seed      int64  `json:"seed"`
	Ops       int    `json:"ops"`
	Sched     string `json:"sched,omitempty"`
	SchedSeed int64  `json:"sched_seed,omitempty"`

	// Headline aggregates.
	Makespan           uint64  `json:"makespan"`
	Commits            uint64  `json:"commits"`
	IrrevocableCommits uint64  `json:"irrevocable_commits"`
	AbortsTotal        uint64  `json:"aborts_total"`
	AbortsPerCommit    float64 `json:"aborts_per_commit"`
	WastedOverUseful   float64 `json:"wasted_over_useful"`

	// Cycle attribution, machine-wide and per core.
	Cycles  CycleBreakdown  `json:"cycles"`
	PerCore []CoreBreakdown `json:"per_core"`

	// Abort attribution by cause, by atomic block, by conflicting anchor
	// (PC), by conflicting cache line, and by fully attributed
	// victim/killer site pair.
	Aborts    []AbortCount  `json:"aborts"`
	Sites     []SiteMetrics `json:"sites"`
	ConfPCs   []AnchorCount `json:"conflicting_anchors"`
	ConfAddrs []AddrCount   `json:"conflicting_lines"`
	ConfPairs []PairCount   `json:"conflicting_pairs"`

	// Advisory-lock behaviour.
	Locks LockMetrics `json:"locks"`
}

// CycleBreakdown attributes cycles spent in or around transactions.
// NTOverhead is a sub-attribution of Useful+Wasted (the attempt windows
// include the NT accesses issued inside them), not a disjoint category.
type CycleBreakdown struct {
	Useful     uint64 `json:"useful"`
	Wasted     uint64 `json:"wasted"`
	LockWait   uint64 `json:"lock_wait"`
	Backoff    uint64 `json:"backoff"`
	GlobalWait uint64 `json:"global_wait"`
	FaultWait  uint64 `json:"fault_wait"`
	NTOverhead uint64 `json:"nt_overhead"`
}

// CoreBreakdown is one core's share of the run.
type CoreBreakdown struct {
	Core       int            `json:"core"`
	FinalClock uint64         `json:"final_clock"`
	Commits    uint64         `json:"commits"`
	Aborts     uint64         `json:"aborts"`
	Cycles     CycleBreakdown `json:"cycles"`
}

// AbortCount is one abort cause's tally.
type AbortCount struct {
	Reason string `json:"reason"`
	Count  uint64 `json:"count"`
}

// SiteMetrics attributes behaviour to one atomic block (txSite): the
// per-block share of commits, aborts, advisory locks, and cycles.
type SiteMetrics struct {
	ID      int            `json:"id"`
	Name    string         `json:"name"`
	Commits uint64         `json:"commits"`
	Aborts  []AbortCount   `json:"aborts,omitempty"`
	Locks   uint64         `json:"locks"`
	Cycles  CycleBreakdown `json:"cycles"`
}

// AnchorCount is one anchor's conflict-abort tally: the static site the
// aborted core's first access to the conflicting line resolved to.
type AnchorCount struct {
	Site   uint32 `json:"site"`
	PC     string `json:"pc"`
	Where  string `json:"where"`
	Aborts int    `json:"aborts"`
}

// AddrCount is one cache line's conflict-abort tally.
type AddrCount struct {
	Line   string `json:"line"`
	Aborts int    `json:"aborts"`
}

// PairCount is one fully attributed conflicting pair's tally: the
// victim atomic block with its first access to the conflicting line,
// and the killer block with the access that aborted it.
type PairCount struct {
	VictimAB    int    `json:"victim_ab"`
	VictimSite  uint32 `json:"victim_site"`
	VictimWhere string `json:"victim_where"`
	KillerAB    int    `json:"killer_ab"`
	KillerSite  uint32 `json:"killer_site"`
	KillerWhere string `json:"killer_where"`
	Aborts      int    `json:"aborts"`
}

// LockMetrics summarizes advisory-lock behaviour over the run.
type LockMetrics struct {
	Acquired         uint64 `json:"acquired"`
	Timeouts         uint64 `json:"timeouts"`
	HoldCycles       uint64 `json:"hold_cycles"`
	WaitCycles       uint64 `json:"wait_cycles"`
	ContendedCommits uint64 `json:"contended_commits"`
}

// MeanHold returns the mean advisory-lock holding period in cycles.
func (l *LockMetrics) MeanHold() float64 {
	if l.Acquired == 0 {
		return 0
	}
	return float64(l.HoldCycles) / float64(l.Acquired)
}

// Snapshot builds the metrics report for a completed run. It reads only
// Result fields (no simulation state), so it can run on cached results
// and long after the machine is gone.
func Snapshot(r *harness.Result) *Report {
	s := &r.Stats
	rep := &Report{
		Benchmark:          r.Config.Benchmark,
		Mode:               r.Config.Mode.String(),
		Threads:            r.Config.Threads,
		Seed:               r.Config.Seed,
		Ops:                r.TotalOps,
		Sched:              r.Config.Sched,
		SchedSeed:          r.Config.SchedSeed,
		Makespan:           s.Makespan,
		Commits:            s.Commits,
		IrrevocableCommits: s.IrrevocableCommits,
		AbortsTotal:        s.TotalAborts(),
		AbortsPerCommit:    s.AbortsPerCommit(),
		WastedOverUseful:   s.WastedOverUseful(),
		Cycles:             breakdown(&s.CoreStats),
		Locks: LockMetrics{
			Acquired:         r.Metrics.LocksAcquired,
			Timeouts:         r.Metrics.LockTimeouts,
			HoldCycles:       r.Metrics.LockHoldCycles,
			WaitCycles:       s.WaitCycles[htm.WaitLock],
			ContendedCommits: r.Metrics.ContendedCommits,
		},
	}

	rep.PerCore = make([]CoreBreakdown, 0, r.Config.Threads)
	for i := range s.PerCore {
		if i >= r.Config.Threads {
			break // idle cores carry no cycles
		}
		cs := &s.PerCore[i]
		rep.PerCore = append(rep.PerCore, CoreBreakdown{
			Core:       i,
			FinalClock: cs.FinalClock,
			Commits:    cs.Commits,
			Aborts:     cs.TotalAborts(),
			Cycles:     breakdown(cs),
		})
	}

	rep.Aborts = abortCounts(s.Aborts)

	ids := make([]int, 0, len(r.PerAB))
	for id := range r.PerAB {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ab := r.PerAB[id]
		rep.Sites = append(rep.Sites, SiteMetrics{
			ID:      id,
			Name:    ab.Name,
			Commits: ab.Commits,
			Aborts:  abortCounts(ab.Aborts),
			Locks:   ab.Locks,
			Cycles: CycleBreakdown{
				Useful:     ab.UsefulCycles,
				Wasted:     ab.WastedCycles,
				LockWait:   ab.LockWaitCycles,
				Backoff:    ab.BackoffCycles,
				GlobalWait: ab.GlobalWaitCycles,
				NTOverhead: ab.NTTxCycles,
			},
		})
	}

	rep.ConfPCs = anchorCounts(r.ConfPCs, r)
	rep.ConfAddrs = addrCounts(r.ConfAddrs)
	rep.ConfPairs = pairCounts(r.ConfPairs, r)
	return rep
}

// pairCounts sorts the conflicting-pair histogram by abort count
// descending, then by victim and killer identity ascending on ties — a
// total deterministic order.
func pairCounts(hist map[stagger.ConflictPair]int, r *harness.Result) []PairCount {
	out := make([]PairCount, 0, len(hist))
	for p, n := range hist {
		out = append(out, PairCount{
			VictimAB:    p.VictimAB,
			VictimSite:  p.VictimSite,
			VictimWhere: siteWhere(r, p.VictimSite),
			KillerAB:    p.KillerAB,
			KillerSite:  p.KillerSite,
			KillerWhere: siteWhere(r, p.KillerSite),
			Aborts:      n,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Aborts != b.Aborts {
			return a.Aborts > b.Aborts
		}
		if a.VictimAB != b.VictimAB {
			return a.VictimAB < b.VictimAB
		}
		if a.VictimSite != b.VictimSite {
			return a.VictimSite < b.VictimSite
		}
		if a.KillerAB != b.KillerAB {
			return a.KillerAB < b.KillerAB
		}
		return a.KillerSite < b.KillerSite
	})
	return out
}

// breakdown maps core counters to the report's cycle categories.
func breakdown(cs *htm.CoreStats) CycleBreakdown {
	return CycleBreakdown{
		Useful:     cs.UsefulTxCycles,
		Wasted:     cs.WastedTxCycles,
		LockWait:   cs.WaitCycles[htm.WaitLock],
		Backoff:    cs.WaitCycles[htm.WaitBackoff],
		GlobalWait: cs.WaitCycles[htm.WaitGlobal],
		FaultWait:  cs.WaitCycles[htm.WaitFault],
		NTOverhead: cs.NTTxCycles,
	}
}

// abortCounts renders a per-reason counter array as a slice in reason
// order, skipping zero rows (AbortNone is always zero by construction).
func abortCounts(a [htm.NumAbortReasons]uint64) []AbortCount {
	var out []AbortCount
	for reason, n := range a {
		if n == 0 {
			continue
		}
		out = append(out, AbortCount{Reason: htm.AbortReason(reason).String(), Count: n})
	}
	return out
}

// anchorCounts sorts the conflicting-anchor histogram by abort count
// descending, site ID ascending on ties — a total deterministic order.
func anchorCounts(hist map[uint32]int, r *harness.Result) []AnchorCount {
	out := make([]AnchorCount, 0, len(hist))
	for site, n := range hist {
		out = append(out, AnchorCount{
			Site:   site,
			PC:     fmt.Sprintf("%#x", sitePC(r, site)),
			Where:  siteWhere(r, site),
			Aborts: n,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Aborts != out[j].Aborts {
			return out[i].Aborts > out[j].Aborts
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// addrCounts sorts the conflicting-line histogram by abort count
// descending, line address ascending on ties.
func addrCounts(hist map[mem.Addr]int) []AddrCount {
	type row struct {
		line mem.Addr
		n    int
	}
	rows := make([]row, 0, len(hist))
	for a, n := range hist {
		rows = append(rows, row{a, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].line < rows[j].line
	})
	out := make([]AddrCount, len(rows))
	for i, r := range rows {
		out[i] = AddrCount{Line: fmt.Sprintf("%#x", uint64(r.line)), Aborts: r.n}
	}
	return out
}

// sitePC resolves a static site ID to its program counter, 0 if unknown.
func sitePC(r *harness.Result, id uint32) uint64 {
	if s := siteOf(r, id); s != nil {
		return s.PC
	}
	return 0
}

// siteWhere renders a static site as "func.field op" for human output.
func siteWhere(r *harness.Result, id uint32) string {
	s := siteOf(r, id)
	if s == nil {
		return "?"
	}
	op := "load"
	if s.IsStore {
		op = "store"
	}
	where := s.Fn.Name
	if s.Field != "" {
		where += "." + s.Field
	}
	return where + " " + op
}

func siteOf(r *harness.Result, id uint32) *prog.Site {
	if r.Compiled == nil || r.Compiled.Mod == nil {
		return nil
	}
	byID := r.Compiled.Mod.SiteByID
	if int(id) >= len(byID) {
		return nil
	}
	return byID[id]
}
