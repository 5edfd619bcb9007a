package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/store"
)

// CellResult is the durable per-cell payload: the deterministic metrics
// report plus the cell's own store key, encoded once as compact JSON (no
// indentation, no trailing newline) and stored as-is, so serving a cell
// is always a byte copy of what was (or would be) written to disk. The
// JSON is deterministic by construction — fixed struct field order, and
// obs.Report is map-free and stable-sorted.
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

// execute runs a job as one serve-or-compute stream over its keys. It
// serves every key the store already has (from the held index when
// another table job holds it) and computes the rest through the sweep
// primitive, and each payload is encoded and persisted the moment its
// outcome is delivered, while later cells are still simulating; the
// job keeps only the bytes the store did not take (storePut). A failed
// cell does not stop its siblings: they are computed and persisted, so
// a resubmission — or the next life of a killed daemon — recomputes
// only what is actually missing. The error returned is the
// first by input index. Every payload is a function of its key's cell
// alone, so a failure (a chaos watchdog trip included) repeats exactly.
func (s *Server) execute(ctx context.Context, j *Job) error {
	keys := j.plan.keys
	payloads := make([][]byte, len(keys))
	// Equal keys are one simulation (backend htm runs every mode as
	// plain HTM): each key is looked up, and if missing computed, once,
	// at its first index, and its payload fans out to the later ones, as
	// the memo does.
	firsts := make(map[string]int, len(keys))
	fromStore := 0
	for i, key := range keys {
		if f, seen := firsts[key]; seen {
			payloads[i] = payloads[f]
		} else {
			firsts[key] = i
			payloads[i] = s.storeGet(j, key)
		}
		if payloads[i] != nil {
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
	dups := make(map[string][]int) // a missing key's later indices
	for i, b := range payloads {
		switch {
		case b != nil:
		case firsts[keys[i]] == i:
			miss = append(miss, i)
		default:
			dups[keys[i]] = append(dups[keys[i]], i)
		}
	}
	cfgs := make([]harness.RunConfig, len(miss))
	for k, i := range miss {
		cfgs[k] = j.plan.cells[i]
	}
	var first error
	// The stream's error is this deliver's, and it never stops the stream.
	_ = s.cfg.sweep(ctx, cfgs, 0, func(k int, o harness.RunOutcome) error {
		i := miss[k]
		b, err := []byte(nil), o.Err
		if err == nil {
			b, err = encodeCell(keys[i], cfgs[k], o.Res)
		}
		var pe *harness.PanicError
		if errors.As(err, &pe) {
			s.panicCnt.Add(1)
			s.cfg.Logf("staggerd: %s cell %d: contained panic: %v\n%s", j.id, i, pe.Value, pe.Stack)
		}
		if err != nil {
			if first == nil {
				first = fmt.Errorf("cell %d: %w", i, err)
			}
			return nil
		}
		b = s.storePut(keys[i], b)
		payloads[i] = b
		for _, d := range dups[keys[i]] {
			payloads[d] = b
		}
		return nil
	})
	return first
}

// encodeCell renders the durable payload for one freshly computed cell.
func encodeCell(key string, rc harness.RunConfig, res *harness.Result) ([]byte, error) {
	cr := CellResult{Key: key, Report: obs.Snapshot(res)}
	if rc.ChaosRate > 0 {
		cr.ChaosSeed = rc.ChaosSeed
		f := res.Faults
		cr.Faults = &f
	}
	if res.VerifyErr != nil {
		cr.VerifyErr = res.VerifyErr.Error()
	}
	if res.OracleErr != nil {
		cr.OracleErr = res.OracleErr.Error()
	}
	b, err := json.Marshal(&cr)
	if err != nil {
		return nil, fmt.Errorf("encode cell result: %w", err)
	}
	return b, nil
}

// storeGet serves a stored key to j, nil when the store cannot: from the
// held index when a table job holds the key, else from the durable store
// if the entry verifies, and j then holds what it read, so a key joins
// the index on its second request (the first computed and stored it).
func (s *Server) storeGet(j *Job, key string) []byte {
	if s.store == nil {
		return nil
	}
	if b := s.hold(j, key, nil); b != nil {
		s.heldHits.Add(1)
		return b
	}
	if b := s.storeRead(key); b != nil {
		return s.hold(j, key, b)
	}
	return nil
}

// storeRead reads key's entry, nil when the store cannot serve it. A
// corrupt entry has already been removed by the store; it surfaces here
// as a plain miss (logged), so the caller transparently recomputes.
func (s *Server) storeRead(key string) []byte {
	b, err := s.store.Get(key)
	if err != nil {
		var ce *store.CorruptError
		if errors.As(err, &ce) {
			s.cfg.Logf("staggerd: %v", ce)
		} else if !errors.Is(err, store.ErrNotFound) {
			s.cfg.Logf("staggerd: store get: %v", err)
		}
		return nil
	}
	return b
}

// storePut persists a payload computed for j and returns the copy j
// keeps: nil once the store took it, since the store then holds every
// byte and a fetch reads them back (see payloads). A store write failure
// is logged and tolerated: j keeps its bytes and serves them from
// memory, but no other job is served them, since the store does not
// hold them (durability degrades, correctness does not). A server
// without a store keeps every payload with its job.
func (s *Server) storePut(key string, payload []byte) []byte {
	if s.store == nil {
		return payload
	}
	if err := s.store.Put(key, payload); err != nil {
		s.cfg.Logf("staggerd: store put: %v", err)
		return payload
	}
	return nil
}

// payloads returns the payloads of cells [lo, hi) of a done job j, the
// one way its results are read. A cell whose bytes j kept (a copy it
// held, or one the store could not take) is served them; every other
// cell is resolved from the held copy when a table job holds its key,
// else read from the store. A fetch reads and never holds, and reads
// each distinct key once. An entry lost since j stored it (corrupt and
// removed, or unreadable) is recomputed from its cell and put back, so
// a done job always serves its bytes.
func (s *Server) payloads(ctx context.Context, j *Job, lo, hi int) ([][]byte, error) {
	j.mu.Lock()
	done, kept := j.state == JobDone, j.results
	j.mu.Unlock()
	if !done {
		return nil, fmt.Errorf("service: %s is not done", j.id)
	}
	out := slices.Clone(kept[lo:hi])
	read := map[string][]byte{}
	for k, b := range out {
		if b != nil {
			continue
		}
		key := j.plan.keys[lo+k]
		if b = read[key]; b == nil {
			var err error
			if b, err = s.fetch(ctx, j, lo+k); err != nil {
				return nil, err
			}
			read[key] = b
		}
		out[k] = b
	}
	return out, nil
}

// fetch returns the stored payload of cell i of a done job: the held
// copy, else the store's entry, else the cell recomputed and re-put, a
// re-run counted as result_recomputes. Every payload is a function of
// its key's cell alone, so the re-run's bytes are the ones first stored.
func (s *Server) fetch(ctx context.Context, j *Job, i int) ([]byte, error) {
	key := j.plan.keys[i]
	s.jobsMu.Lock()
	b := s.held[key].b
	s.jobsMu.Unlock()
	if b != nil {
		return b, nil
	}
	if b = s.storeRead(key); b != nil {
		return b, nil
	}
	b, err := s.recompute(ctx, j, i)
	if err != nil {
		return nil, fmt.Errorf("cell %d: stored entry lost, recompute: %w", i, err)
	}
	s.recomputes.Add(1)
	if err := s.store.Put(key, b); err != nil {
		s.cfg.Logf("staggerd: store put: %v", err)
	}
	return b, nil
}

// recompute re-runs cell i of j as execute first ran it.
func (s *Server) recompute(ctx context.Context, j *Job, i int) ([]byte, error) {
	key := j.plan.keys[i]
	var b []byte
	err := s.cfg.sweep(ctx, j.plan.cells[i:i+1], 1, func(_ int, o harness.RunOutcome) error {
		if o.Err != nil {
			return o.Err
		}
		var err error
		b, err = encodeCell(key, j.plan.cells[i], o.Res)
		return err
	})
	return b, err
}
