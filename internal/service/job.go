package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// Job kinds. An empty kind is inferred: explore when the Explore field is
// set, run for a single explicit cell, sweep otherwise.
const (
	KindRun     = "run"
	KindSweep   = "sweep"
	KindChaos   = "chaos"
	KindExplore = "explore"
)

// ExploreSpec is the wire form of a schedule-exploration campaign.
type ExploreSpec struct {
	Cell     harness.Cell `json:"cell"`
	Sched    string       `json:"sched,omitempty"` // "" = "pct:3"
	Runs     int          `json:"runs,omitempty"`  // 0 = 100
	Minimize bool         `json:"minimize,omitempty"`
}

func (e ExploreSpec) normalized() (ExploreSpec, harness.RunConfig, error) {
	cell, rc, err := e.Cell.Normalize()
	if err != nil {
		return e, rc, err
	}
	e.Cell = cell
	if e.Sched == "" {
		e.Sched = harness.DefaultExploreSched
	}
	if _, err := sched.Parse(e.Sched); err != nil {
		return e, rc, fmt.Errorf("explore: %w", err)
	}
	if e.Runs <= 0 {
		e.Runs = harness.DefaultExploreRuns
	}
	return e, rc, nil
}

// exploreKey is the durable-store key of a normalized campaign: its
// cell's key with the campaign's own fields.
func exploreKey(e ExploreSpec) string {
	b, _ := json.Marshal(e)
	return fmt.Sprintf("v%d|explore|%s", harness.CacheSchema, b)
}

// JobSpec is one submitted unit of work. Cells can be listed explicitly
// or expanded as the cross product of Benchmarks x Modes x Threads x
// Seeds (empty Benchmarks sweeps every workload, matching the chaos
// campaign CLI); the chaos kind further crosses the base cells with
// ChaosRates.
type JobSpec struct {
	Kind  string         `json:"kind,omitempty"`
	Cells []harness.Cell `json:"cells,omitempty"`

	Benchmarks []string `json:"benchmarks,omitempty"`
	Modes      []string `json:"modes,omitempty"`    // empty = ["staggered"]
	Backends   []string `json:"backends,omitempty"` // empty = [""] (selected by each mode)
	Threads    []int    `json:"threads,omitempty"`  // empty = [4]
	Seeds      []int64  `json:"seeds,omitempty"`    // empty = [harness.DefaultSeed]
	Ops        int      `json:"ops,omitempty"`

	ChaosRates []float64 `json:"chaos_rates,omitempty"` // chaos kind; empty = [0.01]

	Explore *ExploreSpec `json:"explore,omitempty"`

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

func (spec JobSpec) timeout() time.Duration {
	if spec.TimeoutMS <= 0 {
		return 0
	}
	return time.Duration(spec.TimeoutMS) * time.Millisecond
}

// jobPlan is a validated, fully expanded JobSpec: everything the workers
// need, computed once at admission so a malformed spec is a 400 at
// submit, never a failed job.
type jobPlan struct {
	kind    string
	cells   []harness.RunConfig
	keys    []string
	explore harness.ExploreConfig // kind == KindExplore only
}

func (spec JobSpec) plan(maxCells int) (*jobPlan, error) {
	kind := spec.Kind
	if kind == "" {
		switch {
		case spec.Explore != nil:
			kind = KindExplore
		case len(spec.Cells) == 1 && len(spec.Benchmarks) == 0:
			kind = KindRun
		default:
			kind = KindSweep
		}
	}

	if kind == KindExplore {
		if spec.Explore == nil {
			return nil, errors.New("explore job needs an explore spec")
		}
		e, rc, err := spec.Explore.normalized()
		if err != nil {
			return nil, err
		}
		ec := harness.ExploreOf(rc)
		ec.Spec, ec.Runs, ec.Minimize = e.Sched, e.Runs, e.Minimize
		return &jobPlan{kind: kind, keys: []string{exploreKey(e)}, explore: ec}, nil
	}

	base := spec.Cells
	if len(base) == 0 {
		base = spec.product()
	}
	if kind == KindChaos {
		rates := spec.ChaosRates
		if len(rates) == 0 {
			rates = []float64{0.01}
		}
		crossed := make([]harness.Cell, 0, len(base)*len(rates))
		for _, c := range base {
			for _, r := range rates {
				cc := c
				cc.ChaosRate = r
				crossed = append(crossed, cc)
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
	modes := spec.Modes
	if len(modes) == 0 {
		modes = []string{"staggered"}
	}
	backends := spec.Backends
	if len(backends) == 0 {
		backends = []string{""}
	}
	threads := spec.Threads
	if len(threads) == 0 {
		threads = []int{4}
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []int64{harness.DefaultSeed}
	}
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

// Job states. Past queued they are the journal's record types, so a
// transition is journaled under the state's own name.
const (
	JobQueued   = "queued"
	JobRunning  = journal.RecRunning
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
	idem      string // idempotency key ("" = none)
	recovered bool   // re-enqueued by journal replay after a restart

	mu              sync.Mutex
	state           string
	err             string
	fromStore       int // cells served from the durable store
	results         [][]byte
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
		idem:    spec.IdempotencyKey,
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
	Computed  int    `json:"computed"` // cells actually simulated this run
	Recovered bool   `json:"recovered,omitempty"`
	Idem      string `json:"idem,omitempty"`
	Error     string `json:"error,omitempty"`
	CreatedMS int64  `json:"created_ms,omitempty"`
	WaitMS    int64  `json:"wait_ms,omitempty"`    // queued -> started
	RunMS     int64  `json:"run_ms,omitempty"`     // started -> finished
	Timeout   int64  `json:"timeout_ms,omitempty"` // effective deadline
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
		Idem:      j.idem,
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

// payloads returns the per-cell result payloads of a done job (nil
// otherwise). The byte slices are the exact bytes stored durably.
func (j *Job) payloads() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil
	}
	return j.results
}
