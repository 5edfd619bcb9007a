package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/store"
)

// CellResult is the durable per-cell payload: the deterministic metrics
// report plus the cell's own store key, encoded once and stored as-is,
// so serving a cell is always a byte copy of what was (or would be)
// written to disk. The JSON is deterministic by construction — fixed
// struct field order, and obs.Report is map-free and stable-sorted.
type CellResult struct {
	Key string `json:"key"`
	// ChaosSeed is the fault-schedule seed a chaos cell ran under (zero
	// on fault-free cells).
	ChaosSeed int64         `json:"chaos_seed,omitempty"`
	Report    *obs.Report   `json:"report"`
	Faults    *chaos.Counts `json:"faults,omitempty"`
	VerifyErr string        `json:"verify_err,omitempty"`
	OracleErr string        `json:"oracle_err,omitempty"`
}

// ExploreResult is the durable payload of an explore job. Failures carry
// the generative (spec, sched_seed) handle rather than full pick
// sequences — that pair reproduces the schedule exactly.
type ExploreResult struct {
	Key      string           `json:"key"`
	Sched    string           `json:"sched"`
	Runs     int              `json:"runs"`
	Commits  int              `json:"commits"`
	Failures []ExploreFinding `json:"failures"`
}

// ExploreFinding is one failing schedule of an explore job.
type ExploreFinding struct {
	SchedSeed int64    `json:"sched_seed"`
	Err       string   `json:"err"`
	Picks     int      `json:"picks"`
	Minimized []uint32 `json:"minimized,omitempty"`
	Probes    int      `json:"probes,omitempty"`
}

// execute runs a job as one serve-or-compute stream over its keys. It
// serves every key the store already has and computes the rest — a cell
// job's through the sweep primitive, an explore job's one key through
// harness.Explore — and each payload is encoded and persisted the moment
// its outcome is delivered, while later cells are still simulating. A
// failed cell does not stop its siblings: they are computed, persisted
// and kept, so a resubmission — or the next life of a killed daemon —
// recomputes only what is actually missing. The error returned is the
// first by input index. Every payload is a function of its key's cell
// alone, so a failure (a chaos watchdog trip included) repeats exactly.
func (s *Server) execute(ctx context.Context, j *Job) error {
	keys := j.plan.keys
	payloads := make([][]byte, len(keys))
	fromStore := 0
	for i, key := range keys {
		if b, ok := s.storeGet(key); ok {
			payloads[i] = b
			fromStore++
		}
	}
	if j.recovered {
		// Resumption accounting: cells a crashed sweep had already made
		// durable and this incarnation only had to read back.
		s.resumedCells.Add(uint64(fromStore))
	}
	// Shared with the job: filled in below by this goroutine only, read by
	// others once the job is done.
	j.setResults(payloads, fromStore)
	var miss []int
	for i, b := range payloads {
		if b == nil {
			miss = append(miss, i)
		}
	}
	var first error
	deliver := func(i int, b []byte, err error) {
		var pe *harness.PanicError
		if errors.As(err, &pe) {
			s.panicCnt.Add(1)
			s.cfg.Logf("staggerd: %s cell %d: contained panic: %v\n%s", j.id, i, pe.Value, pe.Stack)
		}
		if err != nil {
			if first == nil {
				first = fmt.Errorf("cell %d: %w", i, err)
			}
			return
		}
		s.storePut(keys[i], b)
		payloads[i] = b
	}
	if j.plan.kind == KindExplore {
		for _, i := range miss {
			b, err := explore(ctx, j.plan.explore, keys[i])
			deliver(i, b, err)
		}
		return first
	}
	cfgs := make([]harness.RunConfig, len(miss))
	for k, i := range miss {
		cfgs[k] = j.plan.cells[i]
	}
	// The stream's error is deliver's, and this deliver never stops it.
	_ = s.cfg.sweep(ctx, cfgs, s.cfg.RunWorkers, func(k int, o harness.RunOutcome) error {
		b, err := []byte(nil), o.Err
		if err == nil {
			b, err = encodeCell(keys[miss[k]], cfgs[k], o.Res)
		}
		deliver(miss[k], b, err)
		return nil
	})
	return first
}

// explore computes the payload of an explore job's one key.
func explore(ctx context.Context, ec harness.ExploreConfig, key string) ([]byte, error) {
	ec.Ctx = ctx
	rep, err := harness.Explore(ec)
	if err != nil {
		return nil, err
	}
	er := ExploreResult{
		Key:      key,
		Sched:    rep.Config.Spec,
		Runs:     rep.Runs,
		Commits:  rep.Commits,
		Failures: make([]ExploreFinding, 0, len(rep.Failures)),
	}
	for _, f := range rep.Failures {
		er.Failures = append(er.Failures, ExploreFinding{
			SchedSeed: f.SchedSeed,
			Err:       f.Err.Error(),
			Picks:     len(f.Picks),
			Minimized: f.Minimized,
			Probes:    f.Probes,
		})
	}
	b, err := json.MarshalIndent(&er, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode explore result: %w", err)
	}
	return append(b, '\n'), nil
}

// encodeCell renders the durable payload for one freshly computed cell.
func encodeCell(key string, rc harness.RunConfig, res *harness.Result) ([]byte, error) {
	cr := CellResult{Key: key, Report: obs.Snapshot(res)}
	if rc.Chaos != nil {
		cr.ChaosSeed = rc.Chaos.Seed
		f := res.Faults
		cr.Faults = &f
	}
	if res.VerifyErr != nil {
		cr.VerifyErr = res.VerifyErr.Error()
	}
	if res.OracleErr != nil {
		cr.OracleErr = res.OracleErr.Error()
	}
	b, err := json.MarshalIndent(&cr, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode cell result: %w", err)
	}
	return append(b, '\n'), nil
}

// storeGet serves a key from the durable store if it verifies. A corrupt
// entry has already been quarantined by the store; it surfaces here as a
// plain miss (logged), so the caller transparently recomputes.
func (s *Server) storeGet(key string) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	b, err := s.store.Get(key)
	if err != nil {
		var ce *store.CorruptError
		if errors.As(err, &ce) {
			s.cfg.Logf("staggerd: %v", ce)
		} else if !errors.Is(err, store.ErrNotFound) {
			s.cfg.Logf("staggerd: store get: %v", err)
		}
		return nil, false
	}
	return b, true
}

// storePut persists a payload; a store write failure is logged and
// tolerated (the result is still served from memory — durability
// degrades, correctness does not).
func (s *Server) storePut(key string, payload []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(key, payload); err != nil {
		s.cfg.Logf("staggerd: store put: %v", err)
	}
}
