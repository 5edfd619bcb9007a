package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/workloads"
)

// Job kinds. A kind is only a spelling of the cells a spec plans: chaos
// crosses them with [0.01] when ChaosRates is empty, and run requires
// exactly one; an empty kind and sweep add nothing. Schedule
// exploration is staggersim -explore's, not a job kind.
const (
	KindRun   = "run"
	KindSweep = "sweep"
	KindChaos = "chaos"
)

// issuedKey reports whether a store key has a form this binary builds, a
// cell key under the current schema. Boot GC evicts every other entry
// (the explore payloads of older daemons among them), since no lookup
// can reach it again.
func issuedKey(key string) bool {
	return strings.HasPrefix(key, harness.CellKeyPrefix)
}

// JobSpec is one submitted unit of work: a list of cells. They are the
// explicit Cells, or else the cross product Benchmarks x Modes x Backends
// x Threads x Seeds in that order, each with Ops; either base is then
// crossed with ChaosRates as the innermost axis. An empty axis leaves
// its field zero, which harness.Cell.Normalize defaults, except that
// empty Benchmarks sweeps every workload, matching the chaos campaign
// CLI.
type JobSpec struct {
	Kind  string         `json:"kind,omitempty"` // "", "run", "sweep" or "chaos"
	Cells []harness.Cell `json:"cells,omitempty"`

	Benchmarks []string `json:"benchmarks,omitempty"` // empty = every workload
	Modes      []string `json:"modes,omitempty"`      // empty = the cell default, staggered
	Backends   []string `json:"backends,omitempty"`   // empty = selected by each mode
	Threads    []int    `json:"threads,omitempty"`    // empty = the cell default, 4
	Seeds      []int64  `json:"seeds,omitempty"`      // empty = harness.DefaultSeed
	Ops        int      `json:"ops,omitempty"`

	// ChaosRates, when set, replaces each base cell's chaos_rate, one
	// cell per rate; empty keeps the cells' own rates (chaos kind: [0.01]).
	ChaosRates []float64 `json:"chaos_rates,omitempty"`

	// Explore is the campaign field of the explore jobs older daemons
	// served. It is kept only to be refused, so that a journaled explore
	// job is dropped at boot instead of decoding to an empty spec, which
	// would sweep every workload; staggersim -explore explores.
	Explore json.RawMessage `json:"explore,omitempty"`

	// IdempotencyKey, when set, makes resubmission safe across daemon
	// restarts: a submit whose key matches a live job returns that job
	// instead of admitting a duplicate, and the key is journaled so the
	// index survives a crash. Reusing a key with a different spec is an
	// error.
	IdempotencyKey string `json:"idem,omitempty"`

	// TimeoutMS optionally tightens (never extends) the server's per-job
	// wall-clock deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// jobPlan is a validated, fully expanded JobSpec: everything the workers
// need, computed once at admission so a malformed spec is a 400 at
// submit, never a failed job.
type jobPlan struct {
	kind  string
	cells []harness.RunConfig
	keys  []string
}

// plan expands spec into its cells and keys. The plan's kind is the
// job's status label: the spelled kind, or for an empty one run when
// one explicit cell is all it plans and sweep otherwise.
func (spec JobSpec) plan(maxCells int) (*jobPlan, error) {
	if spec.Explore != nil {
		return nil, errors.New("explore jobs are not served; explore with staggersim -explore")
	}
	kind, rates := spec.Kind, spec.ChaosRates
	switch kind {
	case "", KindRun, KindSweep:
	case KindChaos:
		if len(rates) == 0 {
			rates = []float64{0.01}
		}
	default:
		return nil, fmt.Errorf("unknown job kind %q: want run, sweep or chaos", kind)
	}
	base := spec.Cells
	if len(base) == 0 {
		base = spec.product()
	}
	if len(rates) > 0 {
		crossed := make([]harness.Cell, 0, len(base)*len(rates))
		for _, c := range base {
			for _, r := range rates {
				c.ChaosRate = r
				crossed = append(crossed, c)
			}
		}
		base = crossed
	}
	if len(base) == 0 {
		return nil, errors.New("job expands to zero cells")
	}
	if kind == KindRun && len(base) != 1 {
		return nil, fmt.Errorf("run job must be exactly one cell, got %d", len(base))
	}
	if len(base) > maxCells {
		return nil, fmt.Errorf("job expands to %d cells, limit %d", len(base), maxCells)
	}
	if kind == "" {
		kind = KindSweep
		if len(spec.Cells) == 1 && len(base) == 1 {
			kind = KindRun
		}
	}

	p := &jobPlan{kind: kind, cells: make([]harness.RunConfig, len(base)), keys: make([]string, len(base))}
	for i, c := range base {
		nc, rc, err := c.Normalize()
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		p.cells[i] = rc
		p.keys[i] = nc.Key()
	}
	return p, nil
}

// product expands the sweep axes into explicit cells.
func (spec JobSpec) product() []harness.Cell {
	benches := spec.Benchmarks
	if len(benches) == 0 {
		benches = workloads.Names()
	}
	modes, backends, threads, seeds := axis(spec.Modes), axis(spec.Backends), axis(spec.Threads), axis(spec.Seeds)
	var out []harness.Cell
	for _, b := range benches {
		for _, m := range modes {
			for _, bk := range backends {
				for _, th := range threads {
					for _, sd := range seeds {
						out = append(out, harness.Cell{Bench: b, Mode: m, Backend: bk, Threads: th, Seed: sd, Ops: spec.Ops})
					}
				}
			}
		}
	}
	return out
}

// axis is a sweep axis's values: the zero value alone when it lists none.
func axis[T any](v []T) []T {
	if len(v) == 0 {
		return make([]T, 1)
	}
	return v
}

// Job states. The terminal ones are the journal's terminal record types,
// so a job's end is journaled under the state's own name; queued and
// running are never journaled.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = journal.RecDone
	JobFailed   = journal.RecFailed
	JobCanceled = journal.RecCanceled
)

// Job is one admitted unit of work. All mutable state is guarded by mu;
// Done is closed exactly once, when the job reaches a terminal state.
type Job struct {
	id        string
	spec      JobSpec
	plan      *jobPlan
	recovered bool // re-enqueued by journal replay after a restart

	mu              sync.Mutex
	state           string
	err             string
	fromStore       int      // cells served from the durable store
	results         [][]byte // the bytes j keeps per cell, nil where the store took them (see Server.payloads)
	held            []string // keys j holds in the server's held index; guarded by the server's jobsMu
	created         time.Time
	started         time.Time
	finished        time.Time
	cancel          context.CancelFunc
	cancelRequested atomic.Bool

	done chan struct{}
}

// newJob builds a queued job; both the submit path and journal replay
// construct jobs through here so the two cannot drift.
func newJob(id string, spec JobSpec, plan *jobPlan) *Job {
	return &Job{
		id:      id,
		spec:    spec,
		plan:    plan,
		state:   JobQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is the wire snapshot of a job.
type JobStatus struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	State     string `json:"state"`
	Cells     int    `json:"cells"`
	FromStore int    `json:"from_store"`
	Computed  int    `json:"computed"` // cells not served from the store (equal keys simulate once)
	Recovered bool   `json:"recovered,omitempty"`
	Idem      string `json:"idem,omitempty"`
	Error     string `json:"error,omitempty"`
	CreatedMS int64  `json:"created_ms,omitempty"`
	WaitMS    int64  `json:"wait_ms,omitempty"` // queued -> started
	RunMS     int64  `json:"run_ms,omitempty"`  // started -> finished
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Kind:      j.plan.kind,
		State:     j.state,
		Cells:     len(j.plan.keys),
		FromStore: j.fromStore,
		Recovered: j.recovered,
		Idem:      j.spec.IdempotencyKey,
		Error:     j.err,
		CreatedMS: j.created.UnixMilli(),
	}
	if j.state == JobDone {
		st.Computed = len(j.plan.keys) - j.fromStore
	}
	if !j.started.IsZero() {
		st.WaitMS = j.started.Sub(j.created).Milliseconds()
		if !j.finished.IsZero() {
			st.RunMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	return st
}

// markRunning claims the job for a worker; false means it was canceled
// while queued and must be skipped without touching done.
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	return true
}

func (j *Job) setCancel(c context.CancelFunc) {
	j.mu.Lock()
	j.cancel = c
	// A CancelJob that saw JobRunning before c existed had nothing to
	// call; it is honoured here.
	canceled := j.cancelRequested.Load()
	j.mu.Unlock()
	if canceled {
		c()
	}
}

func (j *Job) setResults(payloads [][]byte, fromStore int) {
	j.mu.Lock()
	j.results = payloads
	j.fromStore = fromStore
	j.mu.Unlock()
}
