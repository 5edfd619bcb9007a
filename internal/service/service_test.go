package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
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

// results is Server.payloads over every cell of a done job.
func results(t *testing.T, s *Server, j *Job) [][]byte {
	t.Helper()
	p, err := s.payloads(context.Background(), j, 0, len(j.plan.keys))
	if err != nil {
		t.Fatal(err)
	}
	return p
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
		{Cells: []harness.Cell{{Bench: "list-hi", Sched: "bogus"}}},              // unparsable scheduler
		{Cells: []harness.Cell{{Bench: "list-hi", Sched: "replay:" + trace}}},    // a server-side file
		{Cells: []harness.Cell{{}}},                                              // missing bench
		{Cells: []harness.Cell{{Bench: "nope"}}},                                 // unknown bench
		{Cells: []harness.Cell{{Bench: "list-hi", Mode: "warp"}}},                // unknown mode
		{Cells: []harness.Cell{{Bench: "list-hi", ChaosRate: 2}}},                // rate outside [0,1]
		{Cells: []harness.Cell{{Bench: "list-hi", Backend: "bogus"}}},            // unknown backend
		{Cells: []harness.Cell{{Bench: "list-hi", Capacity: -1}}},                // negative capacity
		{Cells: []harness.Cell{{Bench: "list-hi", Threads: -1}}},                 // negative threads
		{Cells: []harness.Cell{{Bench: "list-hi", Capacity: 8}}},                 // capacity without the limited backend
		{Cells: []harness.Cell{{Bench: "list-hi", Backend: "occ", Capacity: 8}}}, // capacity on a backend that has none
		{Kind: "bogus", Cells: []harness.Cell{{Bench: "list-hi"}}},               // unknown kind
		{Kind: "explore", Cells: []harness.Cell{{Bench: "list-hi"}}},             // explore jobs are gone
		{Explore: json.RawMessage(`{"cell":{"bench":"list-hi"}}`)},               // so is their campaign field
		{Kind: KindRun, Cells: []harness.Cell{{Bench: "list-hi"}, {Bench: "list-hi"}}},
		{Kind: KindSweep, Seeds: make([]int64, 600)}, // exceeds MaxCells
	} {
		if _, err := s.Submit(bad); err == nil {
			t.Errorf("Submit(%+v) accepted, want error", bad)
		}
	}
	// The wire form is closed: a field this binary does not know is a 400
	// at submit, never a silently different simulation, and so are a kind
	// it does not plan and the explore campaigns older daemons served.
	// `hardened` is the cell switch daemons before CacheSchema 5 accepted.
	for _, body := range []string{
		`{"cells":[{"bench":"list-hi","hardened":true}]}`,
		`{"kind":"chaos","cells":[{"bench":"list-hi","chaos_rate":0.01,"hardened":true}]}`,
		`{"cells":[{"bench":"list-hi"}],"priority":9}`,
		`{"kind":"bogus","cells":[{"bench":"list-hi"}]}`,
		`{"kind":"explore","explore":{"cell":{"bench":"list-hi"},"runs":3}}`,
		`{"explore":{"cell":{"bench":"list-hi"},"runs":3}}`,
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

// spellings holds one spec per way of spelling a job, each with the
// kind and the keys, in order, it has always planned. A kind is only a
// spelling, and stored results are found by these keys: they must not
// move.
var spellings = []struct {
	name, body, kind string
	keys             []string
}{
	{"inferred single cell", `{"cells":[{"bench":"list-hi","threads":2,"ops":200}]}`, KindRun, []string{
		`v6|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":200}`,
	}},
	{"run", `{"kind":"run","cells":[{"bench":"kmeans","mode":"htm","seed":7}]}`, KindRun, []string{
		`v6|cell|{"bench":"kmeans","mode":"htm","backend":"htm","threads":4,"seed":7,"ops":2048}`,
	}},
	{"sweep", `{"kind":"sweep","benchmarks":["list-hi","kmeans"],"threads":[2,4],"ops":200}`, KindSweep, []string{
		`v6|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":200}`,
		`v6|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":4,"seed":42,"ops":200}`,
		`v6|cell|{"bench":"kmeans","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":200}`,
		`v6|cell|{"bench":"kmeans","mode":"staggered","backend":"staggered","threads":4,"seed":42,"ops":200}`,
	}},
	{"sweep inferred from axes", `{"benchmarks":["tsp"],"modes":["htm","sw"],"backends":["","occ"],"seeds":[3]}`, KindSweep, []string{
		`v6|cell|{"bench":"tsp","mode":"htm","backend":"htm","threads":4,"seed":3,"ops":992}`,
		`v6|cell|{"bench":"tsp","mode":"htm","backend":"occ","threads":4,"seed":3,"ops":992}`,
		`v6|cell|{"bench":"tsp","mode":"sw","backend":"staggered","threads":4,"seed":3,"ops":992}`,
		`v6|cell|{"bench":"tsp","mode":"htm","backend":"occ","threads":4,"seed":3,"ops":992}`,
	}},
	{"chaos with rates", `{"kind":"chaos","benchmarks":["list-hi"],"threads":[16],"chaos_rates":[0,0.05]}`, KindChaos, []string{
		`v6|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":16,"seed":42,"ops":3200}`,
		`v6|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":16,"seed":42,"ops":3200,"chaos_rate":0.05,"chaos_seed":42,"watchdog":200000000}`,
	}},
	{"chaos without rates", `{"kind":"chaos","threads":[2]}`, KindChaos, []string{
		`v6|cell|{"bench":"genome","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":512,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`,
		`v6|cell|{"bench":"intruder","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":256,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`,
		`v6|cell|{"bench":"kmeans","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":2048,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`,
		`v6|cell|{"bench":"labyrinth","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":96,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`,
		`v6|cell|{"bench":"ssca2","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":4096,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`,
		`v6|cell|{"bench":"vacation","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":2400,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`,
		`v6|cell|{"bench":"list-lo","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":3200,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`,
		`v6|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":3200,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`,
		`v6|cell|{"bench":"tsp","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":992,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`,
		`v6|cell|{"bench":"memcached","mode":"staggered","backend":"staggered","threads":2,"seed":42,"ops":3200,"chaos_rate":0.01,"chaos_seed":42,"watchdog":200000000}`,
	}},
	{"chaos over cells", `{"kind":"chaos","cells":[{"bench":"list-hi","seed":9},{"bench":"vacation","mode":"htm","chaos_seed":3}],"chaos_rates":[0.01,0.02]}`, KindChaos, []string{
		`v6|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":4,"seed":9,"ops":3200,"chaos_rate":0.01,"chaos_seed":9,"watchdog":200000000}`,
		`v6|cell|{"bench":"list-hi","mode":"staggered","backend":"staggered","threads":4,"seed":9,"ops":3200,"chaos_rate":0.02,"chaos_seed":9,"watchdog":200000000}`,
		`v6|cell|{"bench":"vacation","mode":"htm","backend":"htm","threads":4,"seed":42,"ops":2400,"chaos_rate":0.01,"chaos_seed":3,"watchdog":200000000}`,
		`v6|cell|{"bench":"vacation","mode":"htm","backend":"htm","threads":4,"seed":42,"ops":2400,"chaos_rate":0.02,"chaos_seed":3,"watchdog":200000000}`,
	}},
}

// TestKindsAreSpellings: every spelling a client could submit plans the
// kind and the keys it always planned, in the same order, through the
// wire decoder. A sweep that lists chaos_rates crosses them like the
// chaos kind does.
func TestKindsAreSpellings(t *testing.T) {
	s := newT(t, Config{QueueDepth: len(spellings),
		sweep: seam(func(context.Context, int, harness.RunConfig) harness.RunOutcome { return ok() })})
	for _, sp := range spellings {
		t.Run(sp.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(sp.body)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("POST %s = %d %s", sp.body, rec.Code, rec.Body)
			}
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			j, _ := s.Job(st.ID)
			if st.Kind != sp.kind || !slices.Equal(j.plan.keys, sp.keys) {
				t.Fatalf("%s planned kind %s keys\n%s\nwant kind %s keys\n%s", sp.body,
					st.Kind, strings.Join(j.plan.keys, "\n"), sp.kind, strings.Join(sp.keys, "\n"))
			}
		})
	}
	chaos, err := JobSpec{Kind: KindChaos, Benchmarks: []string{"list-hi"}, ChaosRates: []float64{0, 0.05}}.plan(s.cfg.MaxCells)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := JobSpec{Benchmarks: []string{"list-hi"}, ChaosRates: []float64{0, 0.05}}.plan(s.cfg.MaxCells)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sweep.keys, chaos.keys) {
		t.Fatalf("sweep with chaos_rates planned %q, want the chaos kind's %q", sweep.keys, chaos.keys)
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
	for i, raw := range results(t, s, j) {
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
	cells := results(t, s, j)
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
		if st := waitJob(t, again); st.FromStore != 1 || !bytes.Equal(results(t, s, again)[0], cells[0]) {
			t.Fatalf("%+v: from_store=%d, want the stored cell served byte for byte", c, st.FromStore)
		}
	}
}

// TestEqualKeysSimulateOnce: backends htm and occ both run modes htm and
// staggered as one simulation, so this sweep's four cells plan to two
// keys. Each key is simulated and stored once, and its payload is served
// to both of its cells; computed still counts every cell the store did
// not serve.
func TestEqualKeysSimulateOnce(t *testing.T) {
	var simulated atomic.Int64
	s := newT(t, Config{StoreDir: t.TempDir(), sweep: func(ctx context.Context, cfgs []harness.RunConfig, workers int,
		deliver func(int, harness.RunOutcome) error) error {
		simulated.Add(int64(len(cfgs)))
		return harness.Sweep(ctx, cfgs, workers, deliver)
	}})
	j, err := s.Submit(JobSpec{
		Benchmarks: []string{"list-hi"},
		Modes:      []string{"htm", "staggered"},
		Backends:   []string{"htm", "occ"},
		Ops:        100,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := j.plan.keys
	if len(keys) != 4 || len(map[string]bool{keys[0]: true, keys[1]: true, keys[2]: true, keys[3]: true}) != 2 {
		t.Fatalf("sweep planned keys %q, want 4 cells under 2 distinct keys", keys)
	}
	st := waitJob(t, j)
	if st.State != JobDone || st.FromStore != 0 || st.Computed != 4 {
		t.Fatalf("job %+v, want done with 4 cells computed", st)
	}
	if n := simulated.Load(); n != 2 {
		t.Fatalf("the job simulated %d cells, want one per distinct key (2)", n)
	}
	if puts := s.store.Stats().Puts; puts != 2 {
		t.Fatalf("store took %d puts, want one per distinct key (2)", puts)
	}
	payloads := results(t, s, j)
	for i := range keys {
		for k := range keys {
			if keys[i] == keys[k] && (payloads[i] == nil || !bytes.Equal(payloads[i], payloads[k])) {
				t.Fatalf("cells %d and %d share a key but were served different bytes", i, k)
			}
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
	// The store holds the payload as compact JSON — json.Marshal's bytes,
	// no indentation, no trailing newline — and the cell endpoint serves
	// exactly those bytes.
	stored, err := s.store.Get(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(&cr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, compact) || bytes.Contains(stored, []byte("\n")) {
		t.Fatalf("stored payload is not compact JSON:\n%q\nwant:\n%q", stored, compact)
	}
	if !bytes.Equal(cellBody, stored) {
		t.Fatalf("GET cells/0 served %q, the store holds %q", cellBody, stored)
	}
	_, rc, err := tinySpec(7).Cells[0].Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if want := obs.Snapshot(res); !reflect.DeepEqual(cr.Report, want) {
		t.Fatalf("served report %+v differs from a direct run's %+v", cr.Report, want)
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

// resultBody is GET /jobs/{id}/result through s's handler, which must
// answer 200.
func resultBody(t *testing.T, s *Server, j *Job) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+j.ID()+"/result", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs/%s/result: HTTP %d: %s", j.ID(), rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// resultOf frames payloads the way /result does.
func resultOf(payloads [][]byte) []byte {
	b := append([]byte("[\n"), bytes.Join(payloads, []byte(",\n"))...)
	return append(b, "\n]\n"...)
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
	if !bytes.Equal(results(t, s, j1)[0], results(t, s, j2)[0]) {
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
	if st := s.store.Stats(); st.Puts != 2 {
		t.Fatalf("store took %d puts, want the failed cell's 2 siblings", st.Puts)
	}
	again := run()
	if again.State != JobFailed || again.FromStore != 2 || again.Error != first.Error {
		t.Fatalf("resubmission %+v, want 2 cells from the store and the same failure %q", again, first.Error)
	}
	if st := s.store.Stats(); st.Puts != 2 || st.Misses != 4 {
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

// TestJobTableBounded: the table keeps the last retainTerminal finished
// jobs and forgets older ones everywhere (jobs, order, idempotency
// index, held index). A forgotten ID answers 404, and resubmitting its
// spec — under the same idempotency key or none — is a new job served
// wholly from the store with the same bytes. A cold job holds nothing;
// the held index holds exactly the retained warm jobs' keys, each once
// per job holding it, those jobs share one copy of each payload, and
// held_keys and held_bytes count the index. The warm jobs run four at a
// time, so holds are taken and released concurrently.
func TestJobTableBounded(t *testing.T) {
	s := newT(t, Config{StoreDir: t.TempDir(), JobWorkers: 4, QueueDepth: retainTerminal + 8,
		sweep: seam(func(context.Context, int, harness.RunConfig) harness.RunOutcome { return ok() })})
	keyed := tinySpec(1)
	keyed.IdempotencyKey = "first"
	first, err := s.Submit(keyed)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, first); st.State != JobDone || st.Computed != 1 {
		t.Fatalf("cold job: %+v", st)
	}
	want := results(t, s, first)[0]
	if other, err := s.Submit(tinySpec(2)); err != nil {
		t.Fatal(err)
	} else if st := waitJob(t, other); st.State != JobDone || st.Computed != 1 {
		t.Fatalf("cold job: %+v", st)
	}
	if m := s.Metrics(); m.HeldKeys != 0 || m.HeldBytes != 0 {
		t.Fatalf("two cold jobs hold %d keys, %d bytes; want none", m.HeldKeys, m.HeldBytes)
	}

	submit := func(spec JobSpec) *Job {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	check := func(j *Job) *Job {
		t.Helper()
		if st := waitJob(t, j); st.State != JobDone || st.FromStore != st.Cells || !bytes.Equal(results(t, s, j)[0], want) {
			t.Fatalf("warm job %+v: want every cell from the store, byte for byte", st)
		}
		return j
	}
	var batch []*Job
	for i := 0; i < retainTerminal+8; i++ {
		batch = append(batch, submit(tinySpec(1)))
	}
	for _, j := range batch {
		check(j)
	}
	// Waiters are released before the table is trimmed: wait for the worker.
	for deadline := time.Now().Add(5 * time.Second); s.Metrics().Running > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.jobsMu.Lock()
	jobs, order, idem, retired := len(s.jobs), len(s.order), len(s.idem), len(s.retired)
	kept, held := slices.Clone(s.retired), maps.Clone(s.held)
	s.jobsMu.Unlock()
	holders := map[string]int{} // key -> retained jobs with it among their keys
	for _, j := range kept {
		keys := slices.Compact(slices.Sorted(slices.Values(j.plan.keys)))
		for _, key := range keys {
			holders[key]++
		}
	}
	if jobs != retainTerminal || order != retainTerminal || retired != retainTerminal || idem != 0 {
		t.Fatalf("table after %d jobs: %d jobs, %d ordered, %d retired, %d idempotency keys; want %d/%d/%d/0",
			retainTerminal+10, jobs, order, retired, idem, retainTerminal, retainTerminal, retainTerminal)
	}
	if len(held) != len(holders) {
		t.Fatalf("held index has %d keys, the retained jobs %d", len(held), len(holders))
	}
	heldBytes := 0
	for key, n := range holders {
		if held[key].jobs != n {
			t.Fatalf("held index counts %d holders of %s, want the %d retained jobs holding it", held[key].jobs, key, n)
		}
		heldBytes += len(held[key].b)
	}
	if m := s.Metrics(); m.HeldKeys != int64(len(held)) || m.HeldBytes != int64(heldBytes) {
		t.Fatalf("metrics held_keys %d, held_bytes %d; the index holds %d keys, %d bytes",
			m.HeldKeys, m.HeldBytes, len(held), heldBytes)
	}
	for _, j := range kept {
		if p := results(t, s, j)[0]; &p[0] != &held[j.plan.keys[0]].b[0] {
			t.Fatalf("%s keeps its own copy of a held payload, want the one held copy", j.ID())
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+first.ID()+"/result", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("evicted job's result = %d, want 404", rec.Code)
	}
	if again := check(submit(keyed)); again.ID() == first.ID() {
		t.Fatalf("resubmission under the evicted job's idempotency key returned %s again", first.ID())
	}
}

// TestColdJobsHoldNoPayloads: a job that computes its cells keeps none of
// the payloads the store took, so distinct cold jobs on a durable server
// leave the held index empty, and each job's /result is the store's
// entries byte for byte, read back without being held.
func TestColdJobsHoldNoPayloads(t *testing.T) {
	s := newT(t, Config{StoreDir: t.TempDir()})
	var jobs []*Job
	for seed := int64(1); seed <= 3; seed++ {
		j, err := s.Submit(JobSpec{Cells: []harness.Cell{
			{Bench: "list-hi", Threads: 2, Seed: seed, Ops: 200},
			{Bench: "list-lo", Threads: 2, Seed: seed, Ops: 200},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, j); st.State != JobDone || st.Computed != st.Cells {
			t.Fatalf("cold job: %+v, want done with every cell computed", st)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		for i, b := range j.results {
			if b != nil {
				t.Fatalf("%s keeps %d bytes of cell %d, which the store took", j.ID(), len(b), i)
			}
		}
		stored := make([][]byte, len(j.plan.keys))
		for i, key := range j.plan.keys {
			b, err := s.store.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			stored[i] = b
		}
		if got := resultBody(t, s, j); !bytes.Equal(got, resultOf(stored)) {
			t.Fatalf("%s: /result is not the store's entries:\n%s", j.ID(), got)
		}
	}
	s.jobsMu.Lock()
	held := len(s.held)
	s.jobsMu.Unlock()
	if m := s.Metrics(); held != 0 || m.HeldKeys != 0 || m.HeldBytes != 0 || m.Recomputes != 0 {
		t.Fatalf("after %d cold jobs and their fetches: %d held keys, metrics held_keys %d, held_bytes %d, result_recomputes %d; want all 0",
			len(jobs), held, m.HeldKeys, m.HeldBytes, m.Recomputes)
	}
}
