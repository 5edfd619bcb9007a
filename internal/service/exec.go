package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/htm"
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
	// Attempt and ChaosSeed record a transient-retry reseed: when a
	// chaos-classified failure forced a retry, the payload was computed
	// under this fault-schedule seed rather than the spec's (the workload
	// seed never changes). Zero on the common first-attempt path.
	Attempt   int           `json:"attempt,omitempty"`
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

// execute runs one attempt of a job: serve every cell the store already
// has, compute the misses through the contained parallel runner, and
// persist each fresh result before the job can report done. Cells that
// completed before a failing sibling are already durable, so a retry (or
// a resubmission after a crash) only recomputes what is actually missing.
func (s *Server) execute(ctx context.Context, j *Job, attempt int) error {
	if j.plan.kind == KindExplore {
		return s.executeExplore(ctx, j)
	}
	n := len(j.plan.keys)
	payloads := make([][]byte, n)
	var missIdx []int
	for i, key := range j.plan.keys {
		if b, ok := s.storeGet(key); ok {
			payloads[i] = b
			continue
		}
		missIdx = append(missIdx, i)
	}
	fromStore := n - len(missIdx)
	if j.recovered && attempt == 0 {
		// Resumption accounting: cells a crashed sweep had already made
		// durable and this incarnation only had to read back.
		s.resumedCells.Add(uint64(fromStore))
	}
	if len(missIdx) > 0 {
		cfgs := make([]harness.RunConfig, len(missIdx))
		for k, i := range missIdx {
			cfgs[k] = saltRetry(j.plan.cells[i], attempt)
		}
		outs := s.cfg.runAll(ctx, cfgs, s.cfg.RunWorkers)
		for k, o := range outs {
			i := missIdx[k]
			if o.Err != nil {
				return fmt.Errorf("cell %d: %w", i, s.classify(o.Err, cfgs[k]))
			}
			b, err := encodeCell(j.plan.keys[i], attempt, cfgs[k], o.Res)
			if err != nil {
				return err
			}
			s.storePut(j.plan.keys[i], b)
			payloads[i] = b
		}
	}
	j.setResults(payloads, fromStore)
	return nil
}

// executeExplore runs (or serves) a schedule-exploration campaign.
// Campaign failures are deterministic in the spec, so they are never
// retried; only the durable store decides compute vs serve.
func (s *Server) executeExplore(ctx context.Context, j *Job) error {
	key := j.plan.keys[0]
	if b, ok := s.storeGet(key); ok {
		j.setResults([][]byte{b}, 1)
		return nil
	}
	ec := j.plan.explore
	ec.Ctx = ctx
	rep, err := harness.Explore(ec)
	if err != nil {
		return err
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
		return fmt.Errorf("encode explore result: %w", err)
	}
	b = append(b, '\n')
	s.storePut(key, b)
	j.setResults([][]byte{b}, 0)
	return nil
}

// classify wraps chaos-classified failures with ErrTransient: a virtual
// watchdog trip on a fault-injected cell implicates the injected fault
// schedule, not the workload, so a reseeded retry is meaningful. Every
// other failure — validation, verification, oracle, panic — is a
// deterministic function of the config and is reported as permanent.
// A contained panic is also counted here, whatever cell it came from.
func (s *Server) classify(err error, rc harness.RunConfig) error {
	var pe *harness.PanicError
	if errors.As(err, &pe) {
		s.panicCnt.Add(1)
		return err
	}
	var we *htm.WatchdogError
	if rc.Chaos != nil && errors.As(err, &we) {
		return fmt.Errorf("%w: %w", ErrTransient, err)
	}
	return err
}

// saltRetry reseeds the fault schedule of a chaos cell on retry attempts
// (the workload seed is untouched, so the experiment stays the same
// program under a fresh fault environment). Fault-free cells are
// returned unchanged: their failures are deterministic and the retry
// loop never reaches them anyway.
func saltRetry(rc harness.RunConfig, attempt int) harness.RunConfig {
	if attempt == 0 || rc.Chaos == nil {
		return rc
	}
	cc := *rc.Chaos
	cc.Seed += int64(attempt) * 1_000_003
	rc.Chaos = &cc
	return rc
}

// encodeCell renders the durable payload for one freshly computed cell.
func encodeCell(key string, attempt int, rc harness.RunConfig, res *harness.Result) ([]byte, error) {
	cr := CellResult{Key: key, Report: obs.Snapshot(res)}
	if rc.Chaos != nil {
		cr.ChaosSeed = rc.Chaos.Seed
		f := res.Faults
		cr.Faults = &f
		if attempt > 0 {
			cr.Attempt = attempt
		}
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
