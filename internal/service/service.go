// Package service is the crash-safe simulation service behind cmd/staggerd:
// an HTTP+JSON control plane over the deterministic harness. It accepts
// jobs, each a list of cells (run, sweep and chaos are spellings of one
// planner; schedule exploration is staggersim -explore's), executes them
// on a bounded worker pool, and serves every result from a durable
// content-addressed store (internal/store), so identical (config, seed)
// cells are byte-identical across clients and restarts. A job's cells
// run on harness.Sweep, the one sweep primitive: each outcome is encoded
// and stored the moment the stream delivers it, whatever its siblings
// do. That store is the daemon's only result cache (the sweep memoizes
// nothing), and every server has one: New refuses a Config without a
// StoreDir.
//
// The robustness contract, in order of the failure-mode table in
// DESIGN.md:
//
//   - overload: admission is a bounded queue; a full queue sheds the
//     request with 429 + Retry-After, before it is journaled or given an
//     ID, instead of letting latency and memory grow without bound, and
//     a draining server answers 503;
//   - workload panics: contained per cell by harness.Sweep and logged
//     once with their stack, so a poisoned cell fails its job alone
//     while its siblings are still persisted and the daemon keeps
//     running;
//   - runaway jobs: a per-job wall-clock deadline sits above the
//     simulator's own virtual-time watchdog; either bound abandons the
//     job promptly (the virtual one deterministically, the wall-clock
//     one via context cancellation through harness.RunCtx);
//   - crashes: each cell is durable as soon as it completes
//     (write-temp-fsync-rename), so a daemon killed mid-sweep re-serves
//     the finished cells byte-identically and recomputes only the rest,
//     and a half-written entry is removed, costing one recompute and
//     never a wrong answer;
//   - memory: the job table keeps the last retainTerminal finished jobs;
//     older IDs answer 404 and their results stay in the store, where an
//     identical resubmission finds them. A payload the store took stays
//     on disk: the job that computed it keeps no copy, and a fetch of its
//     result reads the entry back without keeping it (recomputing a lost
//     one). The table's jobs share one copy of each payload a second job
//     asked for through the held index: a key joins it when a job reads
//     it back from this life's store, a later job whose key is held is
//     served that copy without a store read, and the key leaves when the
//     last job holding it is evicted;
//   - shutdown: SIGTERM flips readiness, stops admission, lets in-flight
//     jobs finish within a grace period, then cancels them; the process
//     exits cleanly either way.
//
// Wall-clock time is deliberately confined to this layer (and the
// binaries above it): deadlines and drain grace are service
// concerns. The simulation below remains purely virtual-time and
// deterministic, which the replay and fingerprint tests check.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/store"
	"repro/internal/vfs"
)

// ErrDraining is returned by Submit once drain has begun (HTTP 503).
var ErrDraining = errors.New("service: draining, not accepting jobs")

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity (HTTP 429).
var ErrQueueFull = errors.New("service: admission queue full")

// ErrJournal is returned by Submit when the accepted record cannot be
// made durable (failed write or fsync, disk full): the server refuses
// work it cannot promise to recover, so the client can retry against a
// daemon whose journal has been repaired by a restart (HTTP 503).
var ErrJournal = errors.New("service: job journal unavailable")

// ErrIdemConflict is returned by Submit when an idempotency key is
// reused with a different job spec (HTTP 409-shaped 400).
var ErrIdemConflict = errors.New("service: idempotency key reused with a different spec")

// Config tunes a Server. Every field but StoreDir has a default applied
// by New.
type Config struct {
	// JobWorkers is the number of jobs executing concurrently (default 2).
	JobWorkers int
	// QueueDepth bounds the admission queue (default 8); beyond it,
	// Submit sheds load with ErrQueueFull.
	QueueDepth int
	// JobTimeout is the per-job wall-clock deadline (default 5m). A job's
	// own timeout_ms can tighten it, never extend it.
	JobTimeout time.Duration
	// Grace is how long BeginDrain waits for in-flight jobs before
	// cancelling them (default 10s).
	Grace time.Duration
	// MaxCells bounds one job's expansion (default 512).
	MaxCells int
	// StoreDir roots the durable result store and the write-ahead job
	// journal, <StoreDir>/journal/jobs.wal, so the server is crash-safe.
	// It is required.
	StoreDir string
	// FS is the filesystem under the store and journal — the seam the
	// deterministic disk-fault harness injects through. Nil means the
	// real filesystem.
	FS vfs.FS
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)

	// sweep is the execution seam tests use to inject failures; nil
	// means harness.Sweep.
	sweep func(ctx context.Context, cfgs []harness.RunConfig, workers int, deliver func(i int, o harness.RunOutcome) error) error
}

func (c *Config) defaults() {
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.Grace <= 0 {
		c.Grace = 10 * time.Second
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 512
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.sweep == nil {
		c.sweep = harness.Sweep
	}
}

// Server is the simulation service. Create with New, serve with
// Handler, stop with BeginDrain (or Close, which also waits).
type Server struct {
	cfg   Config
	store *store.Store
	jnl   *journal.Journal

	queue   chan *Job
	admitMu sync.Mutex // serializes Submit against BeginDrain's queue close
	nextID  int        // the last job ID issued; boot sets it, then only Submit, under admitMu

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workers    sync.WaitGroup
	draining   atomic.Bool
	drainOnce  sync.Once
	drained    chan struct{}
	start      time.Time

	jobsMu  sync.Mutex
	jobs    map[string]*Job
	order   []string               // submission order, for listing
	idem    map[string]string      // idempotency key -> job id
	retired []*Job                 // terminal jobs still in the table, oldest first
	held    map[string]heldPayload // key -> the payload copy the table's jobs share (see hold)

	running  atomic.Int64
	accepted atomic.Uint64
	shedFull atomic.Uint64
	shedGone atomic.Uint64
	doneCnt  atomic.Uint64
	failCnt  atomic.Uint64
	cancCnt  atomic.Uint64
	panicCnt atomic.Uint64
	heldHits atomic.Uint64

	heldKeys   atomic.Int64 // len(held), kept by hold and retire
	heldBytes  atomic.Int64 // the held copies' bytes, kept by hold and retire
	recomputes atomic.Uint64

	requeued     atomic.Uint64 // jobs re-enqueued at boot
	resumedCells atomic.Uint64 // recovered-job cells served from the store
}

// New builds a Server, recovers any journaled jobs from a previous
// life, and starts its worker pool. Recovered jobs are re-enqueued
// ahead of fresh admissions under their original IDs; their completed
// cells are served from the durable store, so a crash costs only the
// cells that had not yet been persisted.
func New(cfg Config) (*Server, error) {
	if cfg.StoreDir == "" {
		return nil, errors.New("service: no StoreDir: every server keeps its results in a durable store")
	}
	cfg.defaults()
	fsys := cfg.defaultFS()
	st, err := store.OpenFS(fsys, cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	removed, err := st.GC(issuedKey)
	if err != nil {
		cfg.Logf("staggerd: store gc: %v", err)
	}
	if removed > 0 {
		cfg.Logf("staggerd: store gc evicted %d entries under keys this binary no longer issues", removed)
	}
	jnl, rep, err := journal.Open(fsys, filepath.Join(cfg.StoreDir, "journal", "jobs.wal"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      st,
		jnl:        jnl,
		baseCtx:    ctx,
		baseCancel: cancel,
		drained:    make(chan struct{}),
		start:      time.Now(),
		jobs:       map[string]*Job{},
		idem:       map[string]string{},
		held:       map[string]heldPayload{},
	}
	recovered := s.recover(rep)
	// Recovered jobs ride ahead of fresh admissions and must not trip
	// load shedding, so the queue is sized to hold all of them plus the
	// configured depth.
	s.queue = make(chan *Job, cfg.QueueDepth+len(recovered))
	for _, j := range recovered {
		s.queue <- j
		s.accepted.Add(1)
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit validates, expands, journals, and enqueues a job. It never
// blocks: a full queue returns ErrQueueFull, before anything is journaled
// or an ID is issued, and a draining server ErrDraining, so the HTTP
// layer can map overload to 429/503 with Retry-After instead of holding
// connections open. An idempotency key
// that matches an existing job returns that job instead of admitting a
// duplicate — the safety net that lets clients blindly resubmit across
// daemon restarts. Submit returns only after the accepted record is
// fsync'd: from that moment the job survives any crash. A journal
// wedged by a failed append refuses every submission (ErrJournal)
// before it is planned, and a refused submission takes no job ID.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if s.jnl.Wedged() {
		return nil, fmt.Errorf("%w: %v", ErrJournal, journal.ErrWedged)
	}
	plan, err := spec.plan(s.cfg.MaxCells)
	if err != nil {
		return nil, err
	}

	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining.Load() {
		s.shedGone.Add(1)
		return nil, ErrDraining
	}
	if spec.IdempotencyKey != "" {
		s.jobsMu.Lock()
		prior, ok := s.jobs[s.idem[spec.IdempotencyKey]]
		s.jobsMu.Unlock()
		if ok {
			want, _ := json.Marshal(spec)
			got, _ := json.Marshal(prior.spec)
			if !bytes.Equal(want, got) {
				return nil, fmt.Errorf("%w: key %q is %s", ErrIdemConflict, spec.IdempotencyKey, prior.id)
			}
			return prior, nil
		}
	}
	// Only Submit sends on the queue, under admitMu, so the room seen here
	// is still there at the send below.
	if len(s.queue) == cap(s.queue) {
		s.shedFull.Add(1)
		return nil, ErrQueueFull
	}
	id := fmt.Sprintf("job-%06d", s.nextID+1)
	j := newJob(id, spec, plan)
	// Durable admission: the accepted record must be on disk before the
	// job becomes visible. A journal that cannot take the record means
	// the crash-safety promise cannot be made, so the job is refused.
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("service: encode spec: %w", err)
	}
	if err := s.jnl.Append(journal.Record{Type: journal.RecAccepted, Job: id, Spec: raw}); err != nil {
		s.cfg.Logf("staggerd: submission refused, journal append failed: %v", err)
		return nil, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	s.nextID++
	s.queue <- j
	s.jobsMu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	if spec.IdempotencyKey != "" {
		s.idem[spec.IdempotencyKey] = id
	}
	s.jobsMu.Unlock()
	s.accepted.Add(1)
	return j, nil
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.jobsMu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.jobsMu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// CancelJob cancels a job: a queued job is terminally canceled in place
// (its worker will skip it), a running one has its context cancelled and
// finishes as canceled within about one simulated event.
func (s *Server) CancelJob(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return fmt.Errorf("service: no job %q", id)
	}
	if s.retire(j, JobQueued, JobCanceled, "canceled before start") {
		return nil
	}
	j.mu.Lock()
	var cancel context.CancelFunc
	if j.state == JobRunning {
		j.cancelRequested.Store(true)
		cancel = j.cancel
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// Ready reports whether the server accepts new jobs (false once drain
// has begun — the /readyz signal load balancers act on).
func (s *Server) Ready() bool { return !s.draining.Load() }

// BeginDrain starts graceful shutdown: readiness flips immediately, no
// further jobs are admitted, in-flight jobs get the configured grace to
// finish, then their contexts are cancelled. It returns immediately and
// is idempotent; Drained is closed when the pool has fully stopped.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.admitMu.Lock()
		s.draining.Store(true)
		close(s.queue) // workers exit once the backlog is consumed
		s.admitMu.Unlock()
		s.cfg.Logf("staggerd: draining (grace %v)", s.cfg.Grace)
		go func() {
			idle := make(chan struct{})
			go func() {
				s.workers.Wait()
				close(idle)
			}()
			select {
			case <-idle:
			case <-time.After(s.cfg.Grace):
				s.cfg.Logf("staggerd: grace expired, cancelling in-flight jobs")
				s.baseCancel()
				<-idle
			}
			s.baseCancel() // release the context either way
			s.jnl.Close()  // the next boot compacts it
			close(s.drained)
		}()
	})
}

// Drained is closed when every worker has stopped after BeginDrain.
func (s *Server) Drained() <-chan struct{} { return s.drained }

// Close drains and waits for the pool to stop.
func (s *Server) Close() {
	s.BeginDrain()
	<-s.drained
}

// Metrics is the service-level counter snapshot served by /metrics
// alongside the store's own Stats.
type Metrics struct {
	Accepted     uint64         `json:"accepted"`
	ShedFull     uint64         `json:"shed_queue_full"`
	ShedDraining uint64         `json:"shed_draining"`
	Done         uint64         `json:"done"`
	Failed       uint64         `json:"failed"`
	Canceled     uint64         `json:"canceled"`
	Panics       uint64         `json:"panics_contained"`
	HeldHits     uint64         `json:"held_hits"`         // cells served from the held index; Store.Hits counts disk reads
	HeldKeys     int64          `json:"held_keys"`         // keys in the held index
	HeldBytes    int64          `json:"held_bytes"`        // bytes of the held copies
	Recomputes   uint64         `json:"result_recomputes"` // lost entries a result fetch recomputed
	Queued       int            `json:"queued"`
	Running      int            `json:"running"`
	Draining     bool           `json:"draining"`
	UptimeMS     int64          `json:"uptime_ms"`
	Store        *store.Stats   `json:"store"`
	Recovery     *RecoveryStats `json:"recovery"`
	Journal      *journal.Stats `json:"journal"`
}

// Metrics snapshots the service counters.
func (s *Server) Metrics() Metrics {
	st, js := s.store.Stats(), s.jnl.Stats()
	return Metrics{
		Accepted:     s.accepted.Load(),
		ShedFull:     s.shedFull.Load(),
		ShedDraining: s.shedGone.Load(),
		Done:         s.doneCnt.Load(),
		Failed:       s.failCnt.Load(),
		Canceled:     s.cancCnt.Load(),
		Panics:       s.panicCnt.Load(),
		HeldHits:     s.heldHits.Load(),
		HeldKeys:     s.heldKeys.Load(),
		HeldBytes:    s.heldBytes.Load(),
		Recomputes:   s.recomputes.Load(),
		Queued:       len(s.queue),
		Running:      int(s.running.Load()),
		Draining:     s.draining.Load(),
		UptimeMS:     time.Since(s.start).Milliseconds(),
		Store:        &st,
		Recovery:     &RecoveryStats{RequeuedJobs: s.requeued.Load(), ResumedCells: s.resumedCells.Load()},
		Journal:      &js,
	}
}

// worker consumes the admission queue until it is closed and drained.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job through its deadline and one execution pass to
// its terminal state.
func (s *Server) runJob(j *Job) {
	if !j.markRunning() {
		return // canceled while queued
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	// No "running" record: replay folds one exactly like "accepted", so
	// only the terminal transition below is worth an fsync.

	timeout := s.cfg.JobTimeout
	if t := time.Duration(j.spec.TimeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	j.setCancel(cancel)

	err := s.execute(ctx, j)
	if err == nil {
		// Results are durable in the store before the terminal record is
		// written: a crash between the two re-runs the job, which then
		// serves every cell from the store — same bytes, wasted instant.
		s.retire(j, JobRunning, JobDone, "")
		return
	}
	if j.cancelRequested.Load() {
		s.retire(j, JobRunning, JobCanceled, err.Error())
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("deadline (%v) exceeded: %w", timeout, err)
	}
	s.retire(j, JobRunning, JobFailed, err.Error())
	s.cfg.Logf("staggerd: %s failed: %v", j.id, err)
}

// retainTerminal bounds the job table: this many finished jobs stay
// addressable by ID, older ones are dropped, and with them their holds
// on the held index. Their payloads are in the store, so an identical
// resubmission is served from the index while another table job holds
// the key, and read from the store (and held again) once none does.
const retainTerminal = 256

// retire moves j from state `from` to the terminal state `to`, releasing
// its waiters; false means j was not in `from` and nothing happened. It
// is the one place a terminal state is written, counted and journaled,
// and so the one place the job table is bounded.
func (s *Server) retire(j *Job, from, to, errMsg string) bool {
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false // a queued cancel that lost the race with a worker, say
	}
	j.state, j.err, j.finished = to, errMsg, time.Now()
	// Count before releasing the waiters: one that wakes and reads
	// Metrics must already see this job.
	switch to {
	case JobDone:
		s.doneCnt.Add(1)
	case JobFailed:
		s.failCnt.Add(1)
	case JobCanceled:
		s.cancCnt.Add(1)
	}
	close(j.done)
	j.mu.Unlock()
	s.journalState(to, j.id, errMsg)

	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.retired = append(s.retired, j)
	if len(s.retired) <= retainTerminal {
		return true
	}
	old := s.retired[0]
	s.retired = slices.Delete(s.retired, 0, 1) // shifts and zeroes: no dead job stays pinned
	delete(s.jobs, old.id)
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == old.id })
	if key := old.spec.IdempotencyKey; s.idem[key] == old.id {
		delete(s.idem, key)
	}
	for _, key := range old.held {
		if h := s.held[key]; h.jobs > 1 {
			h.jobs--
			s.held[key] = h
		} else {
			delete(s.held, key)
			s.heldKeys.Add(-1)
			s.heldBytes.Add(-int64(len(h.b)))
		}
	}
	return true
}

// heldPayload is one key of the held index: the one copy of a stored
// payload that the table's jobs share, and how many of them hold it.
type heldPayload struct {
	b    []byte
	jobs int
}

// hold makes j a holder of key and returns the copy j keeps: the held
// one when another table job holds the key, else b, which becomes the
// held copy. A nil b only looks, and returns nil when no job holds the
// key. Callers hold a key once per job and only for bytes read back
// from this life's store, so the index holds exactly the stored
// payloads a second job asked for, each once.
func (s *Server) hold(j *Job, key string, b []byte) []byte {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	h, ok := s.held[key]
	if !ok {
		if b == nil {
			return nil
		}
		h.b = b
		s.heldKeys.Add(1)
		s.heldBytes.Add(int64(len(b)))
	}
	h.jobs++
	s.held[key] = h
	j.held = append(j.held, key)
	return h.b
}
