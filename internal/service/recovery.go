package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/journal"
	"repro/internal/vfs"
)

// This file is the crash-recovery half of the server: the write-ahead
// job journal on the submit path, and the boot-time replay that turns
// journal facts back into enqueued work.
//
// The contract, stated as the invariant the crash harness asserts:
// once Submit returns a job (so the accepted record is fsync'd), that
// job reaches a terminal state with byte-identical results even if the
// process is SIGKILLed at any instant in between. The proof sketch:
// the accepted record survives the crash (WAL + CRC framing + torn-tail
// truncation), boot replays it and re-enqueues the job under its
// original ID, and because every cell is a pure function of (config,
// seed), re-execution serves already-durable cells from the store and
// recomputes only the missing ones — the same bytes either way. All
// journal failure modes degrade toward at-least-once execution (a
// re-run that wastes compute), never toward lost or corrupted results.

// journalState appends a state-transition record. Transition appends
// are best-effort: losing one can only cause a finished job to re-run
// after a crash, which is safe, so failures are logged (the journal
// counts them) rather than surfaced.
func (s *Server) journalState(typ string, id, errMsg string) {
	if err := s.jnl.Append(journal.Record{Type: typ, Job: id, Error: errMsg}); err != nil {
		s.cfg.Logf("staggerd: journal %s %s: %v", typ, id, err)
	}
}

// jobFact is one job's folded journal history.
type jobFact struct {
	state string
	spec  json.RawMessage
}

// recover folds the replayed records into per-job facts, rebuilds and
// re-enqueues every non-terminal job under its original ID, restores
// the idempotency index (each key lives in its job's spec) and the ID
// counter, and compacts the journal down to the accepted records of the
// jobs still alive. This boot compaction is the only one. Terminal
// entries are dropped, since their results live in the store, where an
// identical resubmission finds them. One is kept: the newest job's last
// record when it is terminal (a failed record when replay drops that
// job), because it carries the ID counter's high-water mark, and a
// later life must never reissue an ID a client may still hold. It
// folds as a terminal fact with no spec, so nothing is requeued for it.
// Duplicate records for one job (possible when a crash interrupts
// compaction bookkeeping) fold into one fact, so replay never
// double-enqueues.
//
// Called from New before the worker pool starts; no locks needed.
func (s *Server) recover(rep *journal.Replay) []*Job {
	facts := map[string]*jobFact{}
	var seen []string
	var newest journal.Record // the last record of the highest-numbered job
	for _, r := range rep.Records {
		f := facts[r.Job]
		if f == nil {
			f = &jobFact{}
			facts[r.Job] = f
			seen = append(seen, r.Job)
		}
		if r.Type == journal.RecAccepted {
			f.spec = r.Spec
		}
		f.state = r.Type
		var n int
		if _, err := fmt.Sscanf(r.Job, "job-%d", &n); err == nil && n >= s.nextID {
			s.nextID = n
			newest = r
		}
	}

	// drop ends a job replay cannot rebuild. A dropped newest job becomes
	// the terminal high-water record, so its ID is never reissued.
	drop := func(id, why string, err error) {
		s.cfg.Logf("staggerd: recovery: %s %s, dropping: %v", id, why, err)
		if id == newest.Job {
			newest = journal.Record{Type: journal.RecFailed, Job: id, Error: err.Error()}
		}
	}
	var requeued []*Job
	var live []journal.Record
	for _, id := range seen {
		f := facts[id]
		if journal.Terminal(f.state) || f.spec == nil {
			continue
		}
		var spec JobSpec
		if err := json.Unmarshal(f.spec, &spec); err != nil {
			drop(id, "has an unreadable spec", err)
			continue
		}
		plan, err := spec.plan(s.cfg.MaxCells)
		if err != nil {
			// The spec no longer validates under this binary (workload or
			// limit drift across an upgrade, or an explore job). Nobody
			// holds a handle to it after a restart, so dropping it with a
			// loud log is terminal.
			drop(id, "no longer plans", err)
			continue
		}
		j := newJob(id, spec, plan)
		j.recovered = true
		s.jobs[id] = j
		s.order = append(s.order, id)
		if spec.IdempotencyKey != "" {
			s.idem[spec.IdempotencyKey] = id
		}
		live = append(live, journal.Record{Type: journal.RecAccepted, Job: id, Spec: f.spec})
		requeued = append(requeued, j)
	}
	if journal.Terminal(newest.Type) {
		live = append(live, newest)
	}
	if err := s.jnl.Compact(live); err != nil {
		s.cfg.Logf("staggerd: recovery: compact: %v", err)
	}
	s.requeued.Store(uint64(len(requeued)))
	if rep.TruncatedBytes > 0 {
		s.cfg.Logf("staggerd: recovery: truncated %d damaged journal tail bytes", rep.TruncatedBytes)
	}
	return requeued
}

// RecoveryStats is the /metrics view of what boot recovery did with the
// journal's replay; the journal's own counters (replayed records,
// truncated tail bytes, append errors) are its "journal" section.
type RecoveryStats struct {
	RequeuedJobs uint64 `json:"requeued_jobs"`
	ResumedCells uint64 `json:"resumed_cells"`
}

// defaultFS resolves the configured filesystem seam.
func (c *Config) defaultFS() vfs.FS {
	if c.FS != nil {
		return c.FS
	}
	return vfs.OS
}
