package obs

import (
	"fmt"
	"io"
	"strings"
)

// Markdown rendering of a Report for cmd/staggerreport and the generated
// EXPERIMENTS.md appendix. Everything here formats numbers that Snapshot
// already sorted, so the output is deterministic.

// WriteMarkdown renders the full human-readable report.
func WriteMarkdown(w io.Writer, rep *Report) error {
	var b strings.Builder
	ident := fmt.Sprintf("`%s` / %s / %d threads / seed %d / %d ops",
		rep.Benchmark, rep.Mode, rep.Threads, rep.Seed, rep.Ops)
	if rep.Sched != "" {
		ident += fmt.Sprintf(" / sched `%s` seed %d", rep.Sched, rep.SchedSeed)
	}
	fmt.Fprintf(&b, "## Run report: %s\n\n", ident)
	fmt.Fprintf(&b, "makespan %d cycles, %d commits (%d irrevocable), %d aborts (%.2f/commit), W/U %.3f\n\n",
		rep.Makespan, rep.Commits, rep.IrrevocableCommits, rep.AbortsTotal,
		rep.AbortsPerCommit, rep.WastedOverUseful)

	b.WriteString("### Cycle breakdown\n\n")
	WriteCycleTable(&b, rep)

	if len(rep.Aborts) != 0 {
		b.WriteString("\n### Aborts by cause\n\n")
		b.WriteString("| cause | count |\n|---|---:|\n")
		for _, a := range rep.Aborts {
			fmt.Fprintf(&b, "| %s | %d |\n", a.Reason, a.Count)
		}
	}

	if len(rep.Sites) != 0 {
		b.WriteString("\n### Per atomic block\n\n")
		b.WriteString("| id | block | commits | aborts | locks | useful | wasted | lock-wait | backoff | global-wait | nt-ovh |\n")
		b.WriteString("|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		for _, s := range rep.Sites {
			var aborts uint64
			for _, a := range s.Aborts {
				aborts += a.Count
			}
			fmt.Fprintf(&b, "| %d | %s | %d | %d | %d | %d | %d | %d | %d | %d | %d |\n",
				s.ID, s.Name, s.Commits, aborts, s.Locks,
				s.Cycles.Useful, s.Cycles.Wasted, s.Cycles.LockWait,
				s.Cycles.Backoff, s.Cycles.GlobalWait, s.Cycles.NTOverhead)
		}
	}

	b.WriteString("\n### Conflict attribution\n\n")
	WriteConflictTables(&b, rep, 0)

	b.WriteString("\n### Advisory locks\n\n")
	fmt.Fprintf(&b, "| acquired | timeouts | contended commits | hold cycles | mean hold | wait cycles |\n")
	fmt.Fprintf(&b, "|---:|---:|---:|---:|---:|---:|\n")
	fmt.Fprintf(&b, "| %d | %d | %d | %d | %.1f | %d |\n",
		rep.Locks.Acquired, rep.Locks.Timeouts,
		rep.Locks.ContendedCommits, rep.Locks.HoldCycles, rep.Locks.MeanHold(),
		rep.Locks.WaitCycles)

	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCycleTable renders the machine-wide cycle-attribution table: each
// category's cycles and its share of summed per-core final clocks.
func WriteCycleTable(w io.Writer, rep *Report) {
	var total uint64
	for _, pc := range rep.PerCore {
		total += pc.FinalClock
	}
	pct := func(v uint64) string {
		if total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(v)/float64(total))
	}
	c := &rep.Cycles
	fmt.Fprintf(w, "| category | cycles | of total |\n|---|---:|---:|\n")
	fmt.Fprintf(w, "| speculative useful | %d | %s |\n", c.Useful, pct(c.Useful))
	fmt.Fprintf(w, "| wasted by aborts | %d | %s |\n", c.Wasted, pct(c.Wasted))
	fmt.Fprintf(w, "| advisory-lock wait | %d | %s |\n", c.LockWait, pct(c.LockWait))
	fmt.Fprintf(w, "| retry backoff | %d | %s |\n", c.Backoff, pct(c.Backoff))
	fmt.Fprintf(w, "| global-lock wait | %d | %s |\n", c.GlobalWait, pct(c.GlobalWait))
	if c.FaultWait != 0 {
		fmt.Fprintf(w, "| fault-injected stall | %d | %s |\n", c.FaultWait, pct(c.FaultWait))
	}
	fmt.Fprintf(w, "| NT overhead in tx (sub) | %d | %s |\n", c.NTOverhead, pct(c.NTOverhead))
}

// WriteConflictTables renders the conflicting-anchor and -line top lists
// (topN <= 0 means all entries).
func WriteConflictTables(w io.Writer, rep *Report, topN int) {
	pcs, addrs := rep.ConfPCs, rep.ConfAddrs
	if topN > 0 && len(pcs) > topN {
		pcs = pcs[:topN]
	}
	if topN > 0 && len(addrs) > topN {
		addrs = addrs[:topN]
	}
	if len(pcs) == 0 && len(addrs) == 0 {
		fmt.Fprintf(w, "no conflict aborts recorded\n")
		return
	}
	if len(pcs) != 0 {
		fmt.Fprintf(w, "| anchor PC | site | where | conflict aborts |\n|---|---:|---|---:|\n")
		for _, p := range pcs {
			fmt.Fprintf(w, "| %s | %d | %s | %d |\n", p.PC, p.Site, p.Where, p.Aborts)
		}
	}
	if len(addrs) != 0 {
		fmt.Fprintf(w, "\n| cache line | conflict aborts |\n|---|---:|\n")
		for _, a := range addrs {
			fmt.Fprintf(w, "| %s | %d |\n", a.Line, a.Aborts)
		}
	}
}
