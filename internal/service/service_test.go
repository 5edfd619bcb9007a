package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/workloads"
)

// tinySpec is a cell cheap enough for unit tests (a few ms of simulation).
func tinySpec(seed int64) JobSpec {
	return JobSpec{Cells: []harness.Cell{{Bench: "list-hi", Mode: "staggered", Threads: 2, Seed: seed, Ops: 200}}}
}

func newT(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Close with a bounded wait: a clean drain takes milliseconds, and a
	// drain step that never returns must fail the test, not hang it until
	// go test's timeout.
	t.Cleanup(func() {
		s.BeginDrain()
		select {
		case <-s.Drained():
		case <-time.After(20 * time.Second):
			t.Error("server did not drain within 20s of Close: a drain step never returns")
		}
	})
	return s
}

func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.Status()
}

// waitState polls until the job reaches the given state.
func waitState(t *testing.T, j *Job, state string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for j.Status().State != state {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", j.ID(), j.Status().State, state)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newT(t, Config{})
	// A scheduler spec is checked at submit. replay:<file> is no
	// scheduler: a remote client must not be able to name a file the
	// daemon then reads, so it is refused even when the file exists.
	trace := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(trace, []byte("{}\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []JobSpec{
		{Cells: []harness.Cell{{Bench: "list-hi", Sched: "bogus"}}},                             // unparsable scheduler
		{Cells: []harness.Cell{{Bench: "list-hi", Sched: "replay:" + trace}}},                   // a server-side file
		{Explore: &ExploreSpec{Cell: harness.Cell{Bench: "list-hi"}, Sched: "bogus"}},           // unparsable campaign scheduler
		{Explore: &ExploreSpec{Cell: harness.Cell{Bench: "list-hi"}, Sched: "replay:" + trace}}, // campaign over a file
		{Cells: []harness.Cell{{}}},                                              // missing bench
		{Cells: []harness.Cell{{Bench: "nope"}}},                                 // unknown bench
		{Cells: []harness.Cell{{Bench: "list-hi", Mode: "warp"}}},                // unknown mode
		{Cells: []harness.Cell{{Bench: "list-hi", ChaosRate: 2}}},                // rate outside [0,1]
		{Cells: []harness.Cell{{Bench: "list-hi", Backend: "bogus"}}},            // unknown backend
		{Cells: []harness.Cell{{Bench: "list-hi", Capacity: -1}}},                // negative capacity
		{Cells: []harness.Cell{{Bench: "list-hi", Threads: -1}}},                 // negative threads
		{Cells: []harness.Cell{{Bench: "list-hi", Capacity: 8}}},                 // capacity without the limited backend
		{Cells: []harness.Cell{{Bench: "list-hi", Backend: "occ", Capacity: 8}}}, // capacity on a backend that has none
		{Kind: KindExplore}, // explore without spec
		{Kind: KindRun, Cells: []harness.Cell{{Bench: "list-hi"}, {Bench: "list-hi"}}},
		{Kind: KindSweep, Seeds: make([]int64, 600)}, // exceeds MaxCells
	} {
		if _, err := s.Submit(bad); err == nil {
			t.Errorf("Submit(%+v) accepted, want error", bad)
		}
	}
	// The wire form is closed: a field this binary does not know is a 400
	// at submit, never a silently different simulation. `hardened` is the
	// cell switch daemons before CacheSchema 5 accepted.
	for _, body := range []string{
		`{"cells":[{"bench":"list-hi","hardened":true}]}`,
		`{"kind":"chaos","cells":[{"bench":"list-hi","chaos_rate":0.01,"hardened":true}]}`,
		`{"cells":[{"bench":"list-hi"}],"priority":9}`,
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s = %d %s, want 400", body, rec.Code, rec.Body)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs admitted from rejected specs", n)
	}
}

// TestBackendSweepAxis submits one sweep over the Backends axis and
// checks the expansion: one cell per backend, each with its own durable
// key (the backend name is part of the normalized harness.Cell), and every
// cell completes with a clean verdict.
func TestBackendSweepAxis(t *testing.T) {
	s := newT(t, Config{StoreDir: t.TempDir()})
	spec := JobSpec{
		Benchmarks: []string{"list-hi"},
		Backends:   []string{"htm", "occ"},
		Threads:    []int{2},
		Ops:        200,
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(j.plan.keys); got != 2 {
		t.Fatalf("sweep expanded to %d cells, want 2", got)
	}
	if j.plan.keys[0] == j.plan.keys[1] {
		t.Fatalf("backends htm and occ share a store key: %s", j.plan.keys[0])
	}
	st := waitJob(t, j)
	if st.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	for i, raw := range j.payloads() {
		var cr CellResult
		if err := json.Unmarshal(raw, &cr); err != nil {
			t.Fatalf("cell %d payload: %v", i, err)
		}
		if cr.VerifyErr != "" || cr.OracleErr != "" {
			t.Errorf("cell %d (%s): verify=%q oracle=%q", i, j.plan.keys[i], cr.VerifyErr, cr.OracleErr)
		}
	}
}

// TestOneSimulationOneStoreKey: a sweep whose mode axis is overridden by
// its backend (backend htm runs plain HTM whatever the mode says) names
// one simulation twice. Both cells must plan to the same durable key —
// so the second is a store hit for any later job — and serve equal
// bytes; so must every other spelling of that cell.
func TestOneSimulationOneStoreKey(t *testing.T) {
	s := newT(t, Config{StoreDir: t.TempDir()})
	j, err := s.Submit(JobSpec{
		Benchmarks: []string{"list-hi"},
		Modes:      []string{"htm", "staggered"},
		Backends:   []string{"htm"},
		Threads:    []int{2},
		Ops:        200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(j.plan.keys) != 2 || j.plan.keys[0] != j.plan.keys[1] {
		t.Fatalf("modes [htm staggered] x backend htm planned to keys %q, want two equal keys", j.plan.keys)
	}
	if st := waitJob(t, j); st.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	cells := j.payloads()
	if !bytes.Equal(cells[0], cells[1]) {
		t.Fatal("one simulation under two spellings served different bytes")
	}
	for _, c := range []harness.Cell{
		{Bench: "list-hi", Mode: "htm", Threads: 2, Ops: 200},
		{Bench: "list-hi", Backend: "htm", Threads: 2, Ops: 200, Seed: harness.DefaultSeed},
	} {
		again, err := s.Submit(JobSpec{Cells: []harness.Cell{c}})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, again); st.FromStore != 1 || !bytes.Equal(again.payloads()[0], cells[0]) {
			t.Fatalf("%+v: from_store=%d, want the stored cell served byte for byte", c, st.FromStore)
		}
	}
}

func TestRunJobEndToEndOverHTTP(t *testing.T) {
	s := newT(t, Config{StoreDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(tinySpec(7))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	j, ok := s.Job(st.ID)
	if !ok {
		t.Fatalf("job %s not registered", st.ID)
	}
	if got := waitJob(t, j); got.State != JobDone {
		t.Fatalf("job ended %s (%s)", got.State, got.Error)
	}

	cellBody := getSized(t, ts.URL+"/jobs/"+st.ID+"/cells/0")
	var cr CellResult
	if err := json.Unmarshal(cellBody, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Report == nil || cr.Report.Benchmark != "list-hi" || cr.Report.Commits == 0 {
		t.Fatalf("cell payload %+v lacks a real report", cr)
	}
	if !strings.HasPrefix(cr.Key, fmt.Sprintf("v%d|cell|", harness.CacheSchema)) {
		t.Fatalf("key %q not schema-tagged", cr.Key)
	}

	var cells []CellResult
	if err := json.Unmarshal(getSized(t, ts.URL+"/jobs/"+st.ID+"/result"), &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("result has %d cells, want 1", len(cells))
	}
}

// getSized fetches url and requires a 200 whose body arrived as one
// sized response: Content-Length set to the body's length, no chunking.
func getSized(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("GET %s: Content-Length %d, Transfer-Encoding %v for a %d-byte body; want a sized, unchunked response",
			url, resp.ContentLength, resp.TransferEncoding, len(body))
	}
	return body
}

func TestByteIdenticalAcrossClients(t *testing.T) {
	s := newT(t, Config{StoreDir: t.TempDir()})
	j1, err := s.Submit(tinySpec(9))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st.State != JobDone || st.FromStore != 0 {
		t.Fatalf("first job: %+v", st)
	}
	j2, err := s.Submit(tinySpec(9))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j2); st.State != JobDone || st.FromStore != 1 {
		t.Fatalf("second job should be served from the store: %+v", st)
	}
	if !bytes.Equal(j1.payloads()[0], j2.payloads()[0]) {
		t.Fatal("two clients saw different bytes for one cell")
	}
}

// sweepFn is the shape of the Config.sweep seam (harness.Sweep's).
type sweepFn = func(context.Context, []harness.RunConfig, int, func(int, harness.RunOutcome) error) error

// seam builds a sweep seam from a per-cell function: cells run one at a
// time on the calling goroutine, each delivered as it returns.
func seam(cell func(ctx context.Context, i int, rc harness.RunConfig) harness.RunOutcome) sweepFn {
	return func(ctx context.Context, cfgs []harness.RunConfig, _ int, deliver func(int, harness.RunOutcome) error) error {
		for i, rc := range cfgs {
			if err := deliver(i, cell(ctx, i, rc)); err != nil {
				return err
			}
		}
		return nil
	}
}

// ok is the outcome of a cell that "ran" without simulating anything.
func ok() harness.RunOutcome { return harness.RunOutcome{Res: &harness.Result{}} }

// blockingSeam parks every cell until release is closed (or the ctx
// dies), so tests can hold workers busy.
func blockingSeam(release <-chan struct{}) sweepFn {
	return seam(func(ctx context.Context, _ int, _ harness.RunConfig) harness.RunOutcome {
		select {
		case <-release:
			return ok()
		case <-ctx.Done():
			return harness.RunOutcome{Err: ctx.Err()}
		}
	})
}

func TestAdmissionShedsWhenFull(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newT(t, Config{JobWorkers: 1, QueueDepth: 2, Grace: 100 * time.Millisecond, sweep: blockingSeam(release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single worker, then fill every queue slot.
	j0, err := s.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j0, JobRunning)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(tinySpec(int64(i + 2))); err != nil {
			t.Fatalf("queue slot %d: %v", i, err)
		}
	}
	// Worker busy + queue full: the next submission must shed.
	if _, err := s.Submit(tinySpec(40)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue Submit = %v, want ErrQueueFull", err)
	}

	body, _ := json.Marshal(tinySpec(50))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if m := s.Metrics(); m.ShedFull == 0 {
		t.Fatalf("metrics %+v did not count shed load", m)
	}
}

// TestAdmissionBuildsNoWorkload: admitting a job normalizes and keys
// every cell, and none of that needs a workload's module — only the
// default operation count, which is a static lookup. With the sweep
// seamed out, a 12-cell job reaches the running state having built none.
func TestAdmissionBuildsNoWorkload(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newT(t, Config{JobWorkers: 1, sweep: blockingSeam(release)})
	before := workloads.Builds()
	j, err := s.Submit(JobSpec{
		Benchmarks: []string{"list-hi", "kmeans", "vacation"},
		Modes:      []string{"htm", "staggered"},
		Threads:    []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobRunning)
	if st := j.Status(); st.Cells != 12 {
		t.Fatalf("planned %d cells, want 12", st.Cells)
	}
	if built := workloads.Builds() - before; built != 0 {
		t.Fatalf("admitting a 12-cell job built %d workloads, want 0", built)
	}
}

// TestOversizedSpecRefused: POST /jobs reads at most maxSpecBytes. The
// spec is otherwise valid (only its idempotency key is padded), so
// without the bound it would be admitted.
func TestOversizedSpecRefused(t *testing.T) {
	s := newT(t, Config{})
	before := s.Metrics().Accepted
	spec := tinySpec(1)
	spec.IdempotencyKey = strings.Repeat("k", 2<<20)
	body, _ := json.Marshal(spec)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB spec = %d %s, want 413", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), fmt.Sprint(maxSpecBytes)) {
		t.Errorf("413 body %q does not name the %d-byte limit", rec.Body, maxSpecBytes)
	}
	if n, m := len(s.Jobs()), s.Metrics(); n != 0 || m.Accepted != before {
		t.Fatalf("oversized spec admitted: %d jobs, accepted %d -> %d", n, before, m.Accepted)
	}
}

// TestChaosWatchdogTripFailsJobDeterministically drives a chaos cell
// whose own watchdog is far too small through the real sweep. A job is
// one pass: the trip fails it, its two siblings are persisted all the
// same, and resubmitting the spec serves them from the store, recomputes
// only the failed cell, and fails with the identical error — the result
// is a function of the spec, never of how often it was tried.
func TestChaosWatchdogTripFailsJobDeterministically(t *testing.T) {
	spec := JobSpec{Cells: []harness.Cell{
		{Bench: "list-hi", Threads: 2, Seed: 1, Ops: 200},
		{Bench: "list-hi", Threads: 2, Seed: 2, Ops: 200, ChaosRate: 0.01, Watchdog: 10_000},
		{Bench: "list-hi", Threads: 2, Seed: 3, Ops: 200},
	}}
	s := newT(t, Config{StoreDir: t.TempDir()})
	run := func() JobStatus {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return waitJob(t, j)
	}
	first := run()
	if first.State != JobFailed || !strings.HasPrefix(first.Error, "cell 1: ") || !strings.Contains(first.Error, "watchdog") {
		t.Fatalf("job %+v, want failed on cell 1's watchdog", first)
	}
	if st := s.Store().Stats(); st.Puts != 2 {
		t.Fatalf("store took %d puts, want the failed cell's 2 siblings", st.Puts)
	}
	again := run()
	if again.State != JobFailed || again.FromStore != 2 || again.Error != first.Error {
		t.Fatalf("resubmission %+v, want 2 cells from the store and the same failure %q", again, first.Error)
	}
	if st := s.Store().Stats(); st.Puts != 2 || st.Misses != 4 {
		t.Fatalf("store stats %+v after resubmission, want 2 puts and 3+1 misses (only the failed cell recomputed)", st)
	}
	if m := s.Metrics(); m.Failed != 2 {
		t.Fatalf("metrics %+v, want 2 failed jobs", m)
	}
}

func TestJobDeadlineFailsJob(t *testing.T) {
	s := newT(t, Config{sweep: blockingSeam(nil)}) // blocks until ctx dies
	spec := tinySpec(1)
	spec.TimeoutMS = 50
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != JobFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline job ended %s (%q), want failed with deadline", st.State, st.Error)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := newT(t, Config{sweep: blockingSeam(nil)})
	j, err := s.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until a worker picks it up, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for j.Status().State == JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.CancelJob(j.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != JobCanceled {
		t.Fatalf("cancelled job ended %s", st.State)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newT(t, Config{JobWorkers: 1, QueueDepth: 4, sweep: blockingSeam(release)})
	if _, err := s.Submit(tinySpec(1)); err != nil { // occupies the worker
		t.Fatal(err)
	}
	j, err := s.Submit(tinySpec(2)) // stays queued
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CancelJob(j.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != JobCanceled {
		t.Fatalf("queued-cancel ended %s", st.State)
	}
}

// TestResultEndpointStates walks the non-done answers of the result API.
func TestResultEndpointStates(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newT(t, Config{JobWorkers: 1, sweep: blockingSeam(release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/jobs/job-999999/result"); code != http.StatusNotFound {
		t.Fatalf("unknown job result = %d, want 404", code)
	}
	j, err := s.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if code := get("/jobs/" + j.ID() + "/result"); code != http.StatusAccepted {
		t.Fatalf("pending result = %d, want 202", code)
	}
}

func TestExploreJobRunsAndIsDurable(t *testing.T) {
	s := newT(t, Config{StoreDir: t.TempDir()})
	spec := JobSpec{Explore: &ExploreSpec{
		Cell: harness.Cell{Bench: "list-hi", Threads: 2, Ops: 120},
		Runs: 3,
	}}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != JobDone || st.Kind != KindExplore {
		t.Fatalf("explore job: %+v", st)
	}
	var er ExploreResult
	if err := json.Unmarshal(j.payloads()[0], &er); err != nil {
		t.Fatal(err)
	}
	if er.Runs != 3 || er.Commits == 0 {
		t.Fatalf("explore result %+v, want 3 runs with commits", er)
	}
	// Resubmission is served from the store, byte-identically.
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j2); st.FromStore != 1 {
		t.Fatalf("explore rerun not served from store: %+v", st)
	}
	if !bytes.Equal(j.payloads()[0], j2.payloads()[0]) {
		t.Fatal("explore payload differed across submissions")
	}
}

// TestJobTableBounded: the table keeps the last retainTerminal finished
// jobs and forgets older ones everywhere (jobs, order, idempotency
// index). A forgotten ID answers 404, and resubmitting its spec — under
// the same idempotency key or none — is a new job served wholly from the
// store with the same bytes.
func TestJobTableBounded(t *testing.T) {
	s := newT(t, Config{StoreDir: t.TempDir(), sweep: seam(func(context.Context, int, harness.RunConfig) harness.RunOutcome { return ok() })})
	keyed := tinySpec(1)
	keyed.IdempotencyKey = "first"
	first, err := s.Submit(keyed)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, first); st.State != JobDone || st.Computed != 1 {
		t.Fatalf("cold job: %+v", st)
	}
	want := first.payloads()[0]

	warm := func(spec JobSpec) *Job {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, j); st.State != JobDone || st.FromStore != st.Cells || !bytes.Equal(j.payloads()[0], want) {
			t.Fatalf("warm job %+v: want every cell from the store, byte for byte", st)
		}
		return j
	}
	for i := 0; i < retainTerminal+8; i++ {
		warm(tinySpec(1))
	}
	// Waiters are released before the table is trimmed: wait for the worker.
	for deadline := time.Now().Add(5 * time.Second); s.Metrics().Running > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.jobsMu.Lock()
	jobs, order, idem, retired := len(s.jobs), len(s.order), len(s.idem), len(s.retired)
	s.jobsMu.Unlock()
	if jobs != retainTerminal || order != retainTerminal || retired != retainTerminal || idem != 0 {
		t.Fatalf("table after %d jobs: %d jobs, %d ordered, %d retired, %d idempotency keys; want %d/%d/%d/0",
			retainTerminal+9, jobs, order, retired, idem, retainTerminal, retainTerminal, retainTerminal)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+first.ID()+"/result", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("evicted job's result = %d, want 404", rec.Code)
	}
	if again := warm(keyed); again.ID() == first.ID() {
		t.Fatalf("resubmission under the evicted job's idempotency key returned %s again", first.ID())
	}
}
