package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/vfs"
)

// The service workloads drive an in-process service.New — staggerd's
// flag defaults: queue 8, 2 job workers, sweeps on every core — over a
// temp store on the counting filesystem, through real HTTP on loopback.
// The load is closed-loop: each client sends its next job only after it
// has read the previous job's result to the last byte.

const (
	coldNominalPassS = 4.0
	coldMaxPasses    = 4
	warmNominalPassS = 0.3
	warmMaxPasses    = 5
	jobTimeout       = 2 * time.Minute
)

var (
	svcBenches  = []string{"genome", "intruder", "kmeans", "ssca2", "memcached", "vacation"}
	svcBackends = []string{"htm", "staggered"}
)

// svcClients is the closed loop's width: min(nproc, 2).
func svcClients() int { return min(runtime.NumCPU(), 2) }

// svcEnv is one booted server and everything around it.
type svcEnv struct {
	r    *run
	dir  string
	cfs  *countingFS
	srv  *service.Server
	ts   *httptest.Server
	http []*http.Client // one connection per client
	next int            // numbers the never-seen seeds
}

func (r *run) bootSvc(clients int, seedFrom int) (*svcEnv, error) {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.outDir, "store-*")
	if err != nil {
		return nil, err
	}
	e := &svcEnv{r: r, dir: dir, cfs: &countingFS{inner: vfs.OS}, next: seedFrom}
	if e.srv, err = service.New(service.Config{StoreDir: dir, FS: e.cfs}); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("service.New: %w", err)
	}
	e.ts = httptest.NewServer(e.srv.Handler())
	for i := 0; i < clients; i++ {
		e.http = append(e.http, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return e, nil
}

func (e *svcEnv) close() {
	for _, c := range e.http {
		c.CloseIdleConnections()
	}
	e.ts.Close()
	e.srv.Close()
	os.RemoveAll(e.dir)
}

// spec is a 12-cell sweep: six benchmarks x {htm, staggered} at four
// threads on one seed.
func (e *svcEnv) spec(n int) service.JobSpec {
	return service.JobSpec{Kind: service.KindSweep, Benchmarks: svcBenches, Backends: svcBackends,
		Threads: []int{4}, Seeds: []int64{e.r.seed*1_000_000 + int64(n) + 1}}
}

// freshSpecs hands each client n specs whose seeds this server has never
// seen (nor has harness's in-process cache).
func (e *svcEnv) freshSpecs(n int) [][]service.JobSpec {
	out := make([][]service.JobSpec, len(e.http))
	for c := range out {
		for k := 0; k < n; k++ {
			out[c] = append(out[c], e.spec(e.next))
			e.next++
		}
	}
	return out
}

// jobResult is one job as its client saw it.
type jobResult struct {
	ackMS, jobMS, fetchMS float64
	bytes                 int
	sum                   string // sha256 of the result bytes
	status                service.JobStatus
}

// doJob is one closed-loop iteration: POST /jobs, wait for Job.Done, GET
// the result to EOF. Anything but a 202, a done job and a 200 is an error.
func (e *svcEnv) doJob(c *http.Client, tr *tracer, group string, spec service.JobSpec) (jr jobResult, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jr, err
	}
	var job *service.Job
	var res []byte
	var code int
	// The job span is what the client waits for and nothing else: decoding
	// the ack belongs to it, hashing the result afterwards does not.
	err = func() error {
		jobSpan := tr.begin("job", group)
		defer tr.end(jobSpan)
		start := time.Now()

		id := tr.begin("http.submit", "")
		ack, ackCode, err := fetch(c, http.MethodPost, e.ts.URL+"/jobs", body)
		var st service.JobStatus
		if err == nil && ackCode == http.StatusAccepted {
			err = json.Unmarshal(ack, &st)
		}
		tr.end(id)
		jr.ackMS = time.Since(start).Seconds() * 1e3
		if err != nil {
			return fmt.Errorf("POST /jobs: %w", err)
		}
		if ackCode != http.StatusAccepted {
			return fmt.Errorf("POST /jobs: %d %s", ackCode, bytes.TrimSpace(ack))
		}

		id = tr.begin("job.wait", "")
		var ok bool
		if job, ok = e.srv.Job(st.ID); !ok {
			err = fmt.Errorf("job %s accepted but unknown", st.ID)
		} else {
			select {
			case <-job.Done():
			case <-time.After(jobTimeout):
				err = fmt.Errorf("job %s not done after %v", st.ID, jobTimeout)
			}
		}
		tr.end(id)
		if err != nil {
			return err
		}

		id = tr.begin("http.result", "")
		fetchStart := time.Now()
		res, code, err = fetch(c, http.MethodGet, e.ts.URL+"/jobs/"+st.ID+"/result", nil)
		tr.end(id)
		jr.fetchMS = time.Since(fetchStart).Seconds() * 1e3
		jr.jobMS = time.Since(start).Seconds() * 1e3
		return err
	}()
	if err != nil {
		return jr, err
	}
	jr.status = job.Status()
	if code != http.StatusOK || jr.status.State != service.JobDone {
		return jr, fmt.Errorf("job %s: state %s, GET result %d: %s", jr.status.ID, jr.status.State, code, jr.status.Error)
	}
	jr.bytes, jr.sum = len(res), sha(res)
	return jr, nil
}

func fetch(c *http.Client, method, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// svcCounts is the server's own accounting at one instant.
type svcCounts struct {
	fs                        fsCounts
	appends                   uint64
	hits, misses, puts, sheds uint64
}

func (a svcCounts) sub(b svcCounts) svcCounts {
	return svcCounts{fs: a.fs.sub(b.fs), appends: a.appends - b.appends, hits: a.hits - b.hits,
		misses: a.misses - b.misses, puts: a.puts - b.puts, sheds: a.sheds - b.sheds}
}

func (e *svcEnv) counts() svcCounts {
	m := e.srv.Metrics()
	c := svcCounts{fs: e.cfs.counts(), sheds: m.ShedFull + m.ShedDraining}
	if m.Journal != nil {
		c.appends = m.Journal.Appends
	}
	if m.Store != nil {
		c.hits, c.misses, c.puts = m.Store.Hits, m.Store.Misses, m.Store.Puts
	}
	return c
}

// quiesce waits until no job is queued or running. A job's last journal
// record is appended after its client has been released, so counters are
// only exact once the workers are idle.
func (e *svcEnv) quiesce() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := e.srv.Metrics(); m.Queued == 0 && m.Running == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server still busy 10s after the last result")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// passResult is one pass over the per-client spec lists.
type passResult struct {
	wallS   float64
	jobs    []jobResult
	specIdx []int // index of each job's spec in its client's list
	client  []int
	delta   svcCounts
	mem     memDelta
}

// pass runs every client through its specs, closed-loop and concurrently,
// and validates each job with valid. A traced pass must have one client:
// spans nest by time on the one driving goroutine.
func (e *svcEnv) pass(tr *tracer, specs [][]service.JobSpec, valid func(client, idx int, jr jobResult) error) (passResult, error) {
	if tr != nil && len(specs) != 1 {
		return passResult{}, fmt.Errorf("a traced pass needs exactly one client, got %d", len(specs))
	}
	before, mm := e.counts(), markMem()
	e.cfs.tr.Store(tr)
	defer e.cfs.tr.Store(nil)
	var mu sync.Mutex
	var pr passResult
	var wg sync.WaitGroup
	start := time.Now()
	for c := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, spec := range specs[c] {
				jr, err := e.doJob(e.http[c], tr, fmt.Sprintf("c%d-%d", c, i), spec)
				if err == nil {
					err = valid(c, i, jr)
				}
				mu.Lock()
				e.r.op(err)
				if err == nil {
					pr.jobs = append(pr.jobs, jr)
					pr.specIdx = append(pr.specIdx, i)
					pr.client = append(pr.client, c)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	pr.wallS = time.Since(start).Seconds()
	if err := e.quiesce(); err != nil {
		return pr, err
	}
	pr.mem = mm.since()
	pr.delta = e.counts().sub(before)
	if e.r.failed > 0 {
		return pr, fmt.Errorf("%d of %d operations failed, first: %s", e.r.failed, e.r.attempted, e.r.firstFail)
	}
	return pr, nil
}

// validCold: every cell of a never-seen job must be computed.
func validCold(_, _ int, jr jobResult) error {
	if s := jr.status; s.Computed != s.Cells || s.FromStore != 0 {
		return fmt.Errorf("cold job %s: computed %d, from_store %d of %d cells", s.ID, s.Computed, s.FromStore, s.Cells)
	}
	return nil
}

// svcStats accumulates the timed passes of a service workload.
type svcStats struct {
	passStats
	ackMS     []float64
	jobs      int
	syncsPer  []float64
	puts      uint64
	fromStore int
	cells     int
}

// digest covers which client got which bytes for which spec.
func (pr *passResult) digest() string {
	lines := make([]string, 0, len(pr.jobs))
	for i, j := range pr.jobs {
		lines = append(lines, fmt.Sprintf("c%d/%d %s", pr.client[i], pr.specIdx[i], j.sum))
	}
	return digest(lines)
}

func (s *svcStats) add(pr passResult) {
	s.passS = append(s.passS, pr.wallS)
	s.mem = append(s.mem, pr.mem)
	for _, j := range pr.jobs {
		s.jobMS = append(s.jobMS, j.jobMS)
		s.ackMS = append(s.ackMS, j.ackMS)
		s.fromStore += j.status.FromStore
		s.cells += j.status.Cells
	}
	s.digests = append(s.digests, pr.digest())
	s.jobs += len(pr.jobs)
	s.syncsPer = append(s.syncsPer, ratio(float64(pr.delta.fs.Syncs), float64(len(pr.jobs))))
	s.puts += pr.delta.puts
}

// finish records what the service workloads report beyond the common
// end-to-end metrics: ack latency, the exact sync count, and the checks.
func (r *run) finishSvc(s *svcStats, jobsPerPass int) error {
	r.latency("submit_ack_ms", s.ackMS)
	r.set("fsyncs_per_job", s.syncsPer[0], s.jobs)
	r.check("fsyncs_exact", spread(s.syncsPer) == 0, "File.Sync calls per job, per pass: %v", s.syncsPer)
	r.set("cells_per_s", float64(s.cells)/float64(len(s.passS))/median(s.passS), len(s.passS))
	return r.finishEndToEnd(&s.passStats, float64(jobsPerPass), "jobs")
}

// ---- svc-cold --------------------------------------------------------

func runCold(r *run) error {
	clients := svcClients()
	if r.trace {
		clients = 1
	}
	// Set-up is short (boot plus one warm-up job per client), so it is
	// done several times and the median reported.
	var s svcStats
	var env *svcEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	seedFrom := 0
	for i := 0; i < r.sz.setupReps; i++ {
		if env != nil {
			seedFrom = env.next
			env.close()
			env = nil
		}
		start := time.Now()
		var err error
		if env, err = r.bootSvc(clients, seedFrom); err != nil {
			return err
		}
		if _, err := env.pass(nil, env.freshSpecs(1), validCold); err != nil {
			return err
		}
		s.setupS = append(s.setupS, time.Since(start).Seconds())
	}
	if r.trace {
		return traceSvc(r, env, func() [][]service.JobSpec { return env.freshSpecs(r.sz.coldJobs) }, validCold)
	}
	for p, n := 0, r.passCount(coldNominalPassS, coldMaxPasses); p < n; p++ {
		r.calibrate()
		pr, err := env.pass(nil, env.freshSpecs(r.sz.coldJobs), validCold)
		if err != nil {
			return err
		}
		s.add(pr)
	}
	// Every job has its own seed, so passes differ by design; the digest
	// covers the whole run and is exact for a given --seed.
	r.check("sim_digest", true, "sha256 %s over %d jobs", digest(s.digests), s.jobs)
	r.check("cold_nothing_from_store", s.fromStore == 0, "%d of %d cells served from the store", s.fromStore, s.cells)
	return r.finishSvc(&s, clients*r.sz.coldJobs)
}

// ---- svc-warm --------------------------------------------------------

func runWarm(r *run) error {
	clients := svcClients()
	if r.trace {
		clients = 1
	}
	// Set-up here is the expensive one — the cold submits that populate
	// the store — and is long enough to be steady measured once.
	start := time.Now()
	env, err := r.bootSvc(clients, 0)
	if err != nil {
		return err
	}
	defer env.close()
	distinct := env.freshSpecs(r.sz.warmSpecs)
	cold, err := env.pass(nil, distinct, validCold)
	if err != nil {
		return err
	}
	sums := make([][]string, clients)
	for c := range sums {
		sums[c] = make([]string, r.sz.warmSpecs)
	}
	for i, j := range cold.jobs {
		sums[cold.client[i]][cold.specIdx[i]] = j.sum
	}
	harness.ClearCache() // the timed region must be served by the store, not by harness's memo
	var s svcStats
	s.setupS = []float64{time.Since(start).Seconds()}

	cycle := func() [][]service.JobSpec {
		out := make([][]service.JobSpec, clients)
		for c := range out {
			for k := 0; k < r.sz.warmJobs; k++ {
				out[c] = append(out[c], distinct[c][k%len(distinct[c])])
			}
		}
		return out
	}
	validWarm := func(c, i int, jr jobResult) error {
		st := jr.status
		if st.FromStore != st.Cells {
			return fmt.Errorf("warm job %s: %d of %d cells from the store", st.ID, st.FromStore, st.Cells)
		}
		if want := sums[c][i%len(sums[c])]; jr.sum != want {
			return fmt.Errorf("warm job %s: result sha256 %s, cold submit gave %s", st.ID, jr.sum, want)
		}
		return nil
	}
	if r.trace {
		return traceSvc(r, env, cycle, validWarm)
	}
	for p, n := 0, r.passCount(warmNominalPassS, warmMaxPasses); p < n; p++ {
		r.calibrate()
		pr, err := env.pass(nil, cycle(), validWarm)
		if err != nil {
			return err
		}
		s.add(pr)
	}
	r.sameDigests("sim_digest", s.digests)
	r.check("warm_all_from_store", s.fromStore == s.cells, "%d of %d cells served from the store", s.fromStore, s.cells)
	r.check("warm_no_puts", s.puts == 0, "%d store puts in the timed region", s.puts)
	return r.finishSvc(&s, clients*r.sz.warmJobs)
}

// ---- traced service run ----------------------------------------------

// traceSvc is the traced run of either service workload, at one client:
// an untraced reference pass, a traced pass (http.submit, job.wait and
// http.result under a job span, the counting filesystem's operations
// adopted by time), direct samples of Server.Submit, Journal.Append and
// Store.Put/Get, one short pass on the real disk, and a reboot over the
// populated directory.
func traceSvc(r *run, env *svcEnv, specs func() [][]service.JobSpec, valid func(int, int, jobResult) error) error {
	r.calibrate()
	plain, err := env.pass(nil, specs(), valid)
	if err != nil {
		return err
	}
	r.finishMem(&passStats{mem: []memDelta{plain.mem}})

	r.calibrate()
	pr, err := env.pass(r.tr, specs(), valid)
	if err != nil {
		return err
	}
	r.tr.adopt()
	r.set("host.tracing_overhead_ratio", pr.wallS/plain.wallS, 1)
	if digests := []string{plain.digest(), pr.digest()}; r.workload == wlWarm {
		r.sameDigests("sim_digest", digests)
	} else {
		r.check("sim_digest", true, "sha256 %s over %d jobs", digest(digests), len(plain.jobs)+len(pr.jobs))
	}
	jobs := float64(len(pr.jobs))
	n := len(pr.jobs)

	var ack, job, fetchMS, waitMS, runMS []float64
	var resultBytes, fromStore, cells int
	for _, j := range pr.jobs {
		ack, job, fetchMS = append(ack, j.ackMS), append(job, j.jobMS), append(fetchMS, j.fetchMS)
		waitMS, runMS = append(waitMS, float64(j.status.WaitMS)), append(runMS, float64(j.status.RunMS))
		resultBytes += j.bytes
		fromStore += j.status.FromStore
		cells += j.status.Cells
	}
	r.latency("service.submit_ack_ms", ack)
	r.set("service.submit_ack_ms_p95", percentile(sorted(ack), p95), n)
	r.set("service.job_ms_p95", percentile(sorted(job), p95), n)
	r.latency("job_ms", job)
	r.set("service.wait_ms_mean", mean(waitMS), n)
	r.set("service.run_ms_mean", mean(runMS), n)
	r.latency("service.result_fetch_ms", fetchMS)
	var fetchS float64
	for _, ms := range fetchMS {
		fetchS += ms / 1e3
	}
	r.set("service.result_mb_per_s", ratio(float64(resultBytes)/(1<<20), fetchS), n)
	r.set("service.from_store_ratio", ratio(float64(fromStore), float64(cells)), n)
	r.set("service.shed_count", float64(pr.delta.sheds), n)

	d := pr.delta
	r.set("journal.appends_per_job", float64(d.appends)/jobs, n)
	r.set("journal.bytes_per_job", float64(d.fs.JournalBytes)/jobs, n)
	r.set("store.puts_per_job", float64(d.puts)/jobs, n)
	r.set("store.gets_per_job", float64(d.hits+d.misses)/jobs, n)
	r.set("store.hit_ratio", ratio(float64(d.hits), float64(d.hits+d.misses)), n)
	r.set("vfs.syncs_per_job", float64(d.fs.Syncs)/jobs, n)
	r.set("vfs.write_bytes_per_job", float64(d.fs.WriteBytes)/jobs, n)
	r.set("vfs.renames_per_job", float64(d.fs.Renames)/jobs, n)
	r.set("vfs.op_time_share", ratio(float64(d.fs.OpNS)/1e9, pr.wallS), n)

	t := r.tr.totals()["job"]
	uncovered := ratio(float64(t.SelfNS), float64(t.DurNS))
	r.check("trace_coverage", uncovered <= 0.02, "%.2f%% of %d job spans lies outside submit, wait and result", uncovered*100, t.Count)
	if r.workload == wlCold {
		r.check("cold_nothing_from_store", fromStore == 0, "%d of %d cells served from the store", fromStore, cells)
	} else {
		r.check("warm_all_from_store", fromStore == cells, "%d of %d cells served from the store", fromStore, cells)
		r.check("warm_no_puts", d.puts == 0, "%d store puts in the traced pass", d.puts)
	}

	env.cfs.tr.Store(r.tr)
	err = svcSamples(r, env, specs()[0])
	env.cfs.tr.Store(nil)
	if err != nil {
		return err
	}
	r.tr.adopt()

	// One short pass that really waits for the disk: informational, this
	// host's disk, never gated.
	real := specs()
	real[0] = real[0][:max(1, len(real[0])/10)]
	env.cfs.realSync.Store(true)
	_, err = env.pass(nil, real, valid)
	env.cfs.realSync.Store(false)
	if err != nil {
		return err
	}
	syncMS := env.cfs.takeRealSyncMS()
	r.set("vfs.real_sync_ms_p50", median(syncMS), len(syncMS))

	// Reboot over the populated directory: journal replay, store open.
	for _, c := range env.http {
		c.CloseIdleConnections()
	}
	env.ts.Close()
	env.srv.Close()
	start := time.Now()
	srv, err := service.New(service.Config{StoreDir: env.dir, FS: env.cfs})
	if err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	r.set("service.boot_ms", time.Since(start).Seconds()*1e3, 1)
	env.srv = srv
	env.ts = httptest.NewServer(srv.Handler())
	return r.probes()
}

// svcSamples times the layers under a submit directly, on the same
// counting filesystem: Server.Submit without HTTP, Journal.Append of a
// spec-sized record, and Store.Put/Get of a real cell payload.
func svcSamples(r *run, env *svcEnv, specs []service.JobSpec) error {
	n := r.sz.samples
	if r.workload == wlCold {
		n = max(2, n/20) // each cold submit is a whole job's compute
	}
	n = min(n, len(specs))
	var inproc []float64
	var lastID string
	for i := 0; i < n; i++ {
		id := r.tr.begin("service.submit", "inproc")
		start := time.Now()
		job, err := env.srv.Submit(specs[i])
		inproc = append(inproc, time.Since(start).Seconds()*1e3)
		r.tr.end(id)
		r.op(err)
		if err != nil {
			return fmt.Errorf("Server.Submit: %w", err)
		}
		select {
		case <-job.Done():
		case <-time.After(jobTimeout):
			return fmt.Errorf("job %s not done after %v", job.ID(), jobTimeout)
		}
		if st := job.Status(); st.State != service.JobDone {
			return fmt.Errorf("job %s: %s %s", st.ID, st.State, st.Error)
		}
		lastID = job.ID()
	}
	if err := env.quiesce(); err != nil {
		return err
	}
	r.latency("service.submit_inproc_ms", inproc)
	r.set("service.http_submit_overhead_ms",
		r.metrics["service.submit_ack_ms_p50"].Value-r.metrics["service.submit_inproc_ms_p50"].Value, n)

	payload, code, err := fetch(env.http[0], http.MethodGet, env.ts.URL+"/jobs/"+lastID+"/cells/0", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET cell payload: %d %v", code, err)
	}
	specJSON, err := json.Marshal(specs[0])
	if err != nil {
		return err
	}

	probeDir := filepath.Join(env.dir, "probe")
	jnl, _, err := journal.Open(env.cfs, filepath.Join(probeDir, "probe.wal"))
	if err != nil {
		return err
	}
	defer jnl.Close()
	var appendUS []float64
	for i := 0; i < r.sz.samples; i++ {
		id := r.tr.begin("journal.append", "direct")
		start := time.Now()
		err := jnl.Append(journal.Record{Type: journal.RecAccepted, Job: fmt.Sprintf("job-%06d", i), Spec: specJSON})
		appendUS = append(appendUS, time.Since(start).Seconds()*1e6)
		r.tr.end(id)
		if err != nil {
			return err
		}
	}
	r.latency("journal.append_us", appendUS)
	r.set("journal.append_us_p95", percentile(sorted(appendUS), p95), len(appendUS))

	st, err := store.OpenFS(env.cfs, filepath.Join(probeDir, "store"))
	if err != nil {
		return err
	}
	var putUS, getUS []float64
	for i := 0; i < r.sz.samples; i++ {
		key := fmt.Sprintf("probe|%d", i)
		id := r.tr.begin("store.put", "direct")
		start := time.Now()
		err := st.Put(key, payload)
		putUS = append(putUS, time.Since(start).Seconds()*1e6)
		r.tr.end(id)
		if err != nil {
			return err
		}
		id = r.tr.begin("store.get", "direct")
		start = time.Now()
		got, err := st.Get(key)
		getUS = append(getUS, time.Since(start).Seconds()*1e6)
		r.tr.end(id)
		if err != nil || !bytes.Equal(got, payload) {
			return fmt.Errorf("store.Get(%s): %v, %d bytes of %d", key, err, len(got), len(payload))
		}
	}
	r.latency("store.put_us", putUS)
	r.latency("store.get_us", getUS)
	return nil
}
