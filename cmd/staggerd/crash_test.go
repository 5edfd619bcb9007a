package main

// The crash harness: these tests build the real staggerd and staggerctl
// binaries, kill the daemon for real (SIGKILL, or a failpoint-triggered
// os.Exit(137)), restart it over the same store directory, and assert
// the recovery contract end to end: every accepted job reaches a
// terminal state with byte-identical results, a polling client rides
// through the restart, and damaged journal tails are truncated, never
// trusted. Failpoint schedules are deterministic (counted hits), so
// every scenario is exactly reproducible.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var daemonBin, ctlBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "staggerd-crash-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "staggerd")
	ctlBin = filepath.Join(dir, "staggerctl")
	for bin, pkg := range map[string]string{daemonBin: ".", ctlBin: "../staggerctl"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// daemon is one running staggerd process under test.
type daemon struct {
	t       *testing.T
	cmd     *exec.Cmd
	addr    string
	logPath string
}

// startDaemon boots staggerd on a kernel-assigned port over store and
// waits for it to publish its address. An "-addr" in extra overrides the
// port, since the last occurrence of a flag wins.
func startDaemon(t *testing.T, store string, extra ...string) *daemon {
	t.Helper()
	scratch := t.TempDir()
	addrFile := filepath.Join(scratch, "addr")
	logPath := filepath.Join(scratch, "daemon.log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-store", store, "-grace", "5s",
	}, extra...)
	cmd := exec.Command(daemonBin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatal(err)
	}
	logf.Close() // the child holds its own descriptor
	d := &daemon{t: t, cmd: cmd, logPath: logPath}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = strings.TrimSpace(string(b))
			return d
		}
		if d.cmd.ProcessState != nil || time.Now().After(deadline) {
			log, _ := os.ReadFile(logPath)
			t.Fatalf("daemon never published its address:\n%s", log)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon and reaps it — the crash, not a drain.
func (d *daemon) kill() {
	d.t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		d.t.Fatal(err)
	}
	d.cmd.Wait()
}

// waitExit reaps the process and returns its exit code.
func (d *daemon) waitExit() int {
	d.cmd.Wait()
	return d.cmd.ProcessState.ExitCode()
}

func (d *daemon) get(path string) (int, []byte) {
	d.t.Helper()
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// submit posts spec and returns (httpStatus, jobID).
func (d *daemon) submit(spec string) (int, string) {
	d.t.Helper()
	resp, err := http.Post("http://"+d.addr+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		d.t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st.ID
}

// jobStatus is the part of GET /jobs/{id} the harness reads.
type jobStatus struct {
	State     string `json:"state"`
	Cells     int    `json:"cells"`
	FromStore int    `json:"from_store"`
	Computed  int    `json:"computed"`
}

// job fetches one job's status (zero if the job is unknown).
func (d *daemon) job(id string) (st jobStatus) {
	d.t.Helper()
	if code, b := d.get("/jobs/" + id); code == 200 {
		json.Unmarshal(b, &st)
	}
	return st
}

// jobState polls one job's state ("" if the job is unknown).
func (d *daemon) jobState(id string) string { return d.job(id).State }

// storePuts is /metrics' count of entries this daemon has persisted.
func (d *daemon) storePuts() int {
	d.t.Helper()
	_, b := d.get("/metrics")
	var m struct {
		Store struct {
			Puts int `json:"puts"`
		} `json:"store"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		d.t.Fatalf("metrics: %v: %s", err, b)
	}
	return m.Store.Puts
}

// waitDone polls until the job is done (fatal on failed/canceled).
func (d *daemon) waitDone(id string) {
	d.t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		switch st := d.jobState(id); st {
		case "done":
			return
		case "failed", "canceled":
			_, b := d.get("/jobs/" + id)
			log, _ := os.ReadFile(d.logPath)
			d.t.Fatalf("job %s ended %s: %s\n%s", id, st, b, log)
		}
		if time.Now().After(deadline) {
			log, _ := os.ReadFile(d.logPath)
			d.t.Fatalf("job %s never finished\n%s", id, log)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func (d *daemon) result(id string) []byte {
	d.t.Helper()
	code, b := d.get("/jobs/" + id + "/result")
	if code != 200 {
		d.t.Fatalf("result %s: HTTP %d: %s", id, code, b)
	}
	return b
}

func (d *daemon) recoveryMetrics() map[string]float64 { return d.metricsSection("recovery") }

// metricsSection returns one numeric section of /metrics.
func (d *daemon) metricsSection(name string) map[string]float64 {
	d.t.Helper()
	_, b := d.get("/metrics")
	var m map[string]json.RawMessage
	var sec map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		d.t.Fatalf("metrics: %v: %s", err, b)
	}
	if err := json.Unmarshal(m[name], &sec); err != nil {
		d.t.Fatalf("metrics %s: %v: %s", name, err, b)
	}
	return sec
}

// The sweep used across crash scenarios: its last cell is much the
// longest, so there is a wide window in which the first cells are done
// and the job is not, and it is identical everywhere so results can be
// compared byte-for-byte against an uninterrupted reference run.
const crashSweep = `{"cells":[
  {"bench":"list-hi","threads":2,"seed":1,"ops":2000},
  {"bench":"list-hi","threads":2,"seed":2,"ops":2000},
  {"bench":"list-hi","threads":2,"seed":3,"ops":40000}]}`

const tinyJob = `{"cells":[{"bench":"list-hi","threads":2,"seed":9,"ops":300}]}`

// TestKillMidSweepRecoversByteIdentical is the harness's headline
// invariant: SIGKILL the daemon while a sweep is executing, restart it
// over the same store, and the job completes under its original ID with
// results byte-identical to an uninterrupted run — recomputing only the
// cells the first life had not finished, because each finished cell was
// made durable the moment it completed. A staggerctl -reconnect waiter
// started before the crash rides through the restart, which binds the
// first daemon's port as a supervisor restarting it in place would.
func TestKillMidSweepRecoversByteIdentical(t *testing.T) {
	// Reference: the same sweep, never interrupted, in a separate store.
	ref := startDaemon(t, t.TempDir())
	code, refID := ref.submit(crashSweep)
	if code != 202 {
		t.Fatalf("reference submit: HTTP %d", code)
	}
	ref.waitDone(refID)
	want := ref.result(refID)
	ref.kill()

	store := t.TempDir()
	d1 := startDaemon(t, store)
	code, id := d1.submit(crashSweep)
	if code != 202 {
		t.Fatalf("submit: HTTP %d", code)
	}
	var waitOut, waitErr bytes.Buffer
	waiter := exec.Command(ctlBin, "-addr", d1.addr, "-reconnect", "30s", "-timeout", "120s", "wait", id)
	waiter.Stdout, waiter.Stderr = &waitOut, &waitErr
	if err := waiter.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if waiter.ProcessState == nil {
			waiter.Process.Kill()
			waiter.Wait()
		}
	})
	// The crash lands mid-sweep: at least one cell persisted, job running.
	deadline := time.Now().Add(60 * time.Second)
	for d1.storePuts() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job %s persisted no cell", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := d1.jobState(id); st != "running" {
		t.Fatalf("job %s is %s after its first store put, want running: the kill would not land mid-sweep", id, st)
	}
	d1.kill()

	d2 := startDaemon(t, store, "-addr", d1.addr)
	rec := d2.recoveryMetrics()
	if rec["requeued_jobs"] != 1 {
		t.Fatalf("recovery metrics after crash: %v, want requeued_jobs=1", rec)
	}
	if st := d2.jobState(id); st == "" {
		t.Fatalf("job %s lost across the crash", id)
	}
	if err := waiter.Wait(); err != nil {
		t.Fatalf("reconnecting waiter did not ride through the restart: %v\n%s", err, waitErr.Bytes())
	}
	if !strings.Contains(waitOut.String(), `"state": "done"`) {
		t.Fatalf("waiter's final status is not done: %s", waitOut.Bytes())
	}
	if got := d2.result(id); !bytes.Equal(got, want) {
		t.Errorf("recovered result differs from the uninterrupted reference run (%d vs %d bytes)",
			len(got), len(want))
	}
	st := d2.job(id)
	if st.FromStore == 0 || st.Computed >= st.Cells {
		t.Errorf("recovered job: from_store %d, computed %d of %d cells; want the first life's finished cells read back, not recomputed",
			st.FromStore, st.Computed, st.Cells)
	}
	if got := d2.recoveryMetrics()["resumed_cells"]; got != float64(st.FromStore) {
		t.Errorf("recovery metric resumed_cells = %v, want the recovered job's from_store, %d", got, st.FromStore)
	}
	// Resubmitting the identical sweep is served wholly from the store.
	code, id2 := d2.submit(crashSweep)
	if code != 202 {
		t.Fatalf("resubmit: HTTP %d", code)
	}
	d2.waitDone(id2)
	if st := d2.job(id2); st.FromStore != 3 {
		t.Errorf("resubmission from_store = %d, want 3", st.FromStore)
	}
}

// TestFailpointCrashAfterAcceptRecovers pins the submit-path guarantee:
// the daemon dies by deterministic failpoint the instant the accepted
// record's fsync completes — before the client hears anything — and the
// restarted daemon still runs the job to done. Accepted means durable.
func TestFailpointCrashAfterAcceptRecovers(t *testing.T) {
	store := t.TempDir()
	// Journal sync hit 1 is the boot magic and hit 2 the boot
	// compaction's temp file (jobs.wal.compact-*); hit 3 is the first
	// submit's accepted record. The crash completes the fsync, then
	// exits 137.
	d1 := startDaemon(t, store, "-failpoints", "sync:jobs.wal=crash@3")
	resp, err := http.Post("http://"+d1.addr+"/jobs", "application/json", strings.NewReader(tinyJob))
	if err == nil {
		resp.Body.Close()
	}
	if code := d1.waitExit(); code != 137 {
		log, _ := os.ReadFile(d1.logPath)
		t.Fatalf("failpoint crash exited %d, want 137\n%s", code, log)
	}

	d2 := startDaemon(t, store)
	rec := d2.recoveryMetrics()
	if rec["requeued_jobs"] != 1 {
		t.Fatalf("recovery metrics = %v, want requeued_jobs=1", rec)
	}
	// The job the client never heard about completes under its own ID.
	d2.waitDone("job-000001")
	if b := d2.result("job-000001"); !bytes.Contains(b, []byte("list-hi")) {
		t.Fatalf("recovered result looks wrong: %.200s", b)
	}
}

// TestTornJournalTailTruncatedOnBoot injects a short write into the
// journal append (half the accepted frame lands), kills the daemon, and
// asserts the restart truncates the torn tail, keeps no copy of it,
// counts it in /metrics, and keeps accepting work.
func TestTornJournalTailTruncatedOnBoot(t *testing.T) {
	store := t.TempDir()
	// Journal write hit 1 is the boot magic and hit 2 the boot
	// compaction's temp file; hit 3 is the first submit's frame, torn in
	// half. The submit must be refused — its record is not durable — and
	// the journal wedges until restart.
	d1 := startDaemon(t, store, "-failpoints", "write:jobs.wal=short@3")
	code, _ := d1.submit(tinyJob)
	if code != 503 {
		t.Fatalf("submit onto failing journal: HTTP %d, want 503", code)
	}
	code, _ = d1.submit(tinyJob)
	if code != 503 {
		t.Fatalf("submit onto wedged journal: HTTP %d, want 503", code)
	}
	d1.kill()

	d2 := startDaemon(t, store)
	rec, jnl := d2.recoveryMetrics(), d2.metricsSection("journal")
	if jnl["truncated_tail_bytes"] == 0 || rec["requeued_jobs"] != 0 {
		t.Fatalf("metrics = recovery %v, journal %v; want truncated tail bytes and no requeues", rec, jnl)
	}
	ents, err := os.ReadDir(filepath.Join(store, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "jobs.wal" {
		t.Fatalf("%s/journal holds %v, want only jobs.wal", store, ents)
	}
	// The repaired journal accepts and completes work.
	code, id := d2.submit(tinyJob)
	if code != 202 {
		t.Fatalf("submit after repair: HTTP %d", code)
	}
	d2.waitDone(id)
}

// TestStoreENOSPCDegradesNotCorrupts floods every store write with
// ENOSPC: jobs still complete (served from memory), nothing corrupt
// lands on disk, and a healthy restart recomputes the same bytes from
// scratch. The terminal job itself is not resurrected — its done record
// was journaled, so boot replay rightly drops it — which is exactly the
// degradation contract: lost durability costs recompute, never bytes.
func TestStoreENOSPCDegradesNotCorrupts(t *testing.T) {
	store := t.TempDir()
	d1 := startDaemon(t, store, "-failpoints", "write:objects=enospc@*")
	code, id := d1.submit(tinyJob)
	if code != 202 {
		t.Fatalf("submit: HTTP %d", code)
	}
	d1.waitDone(id)
	first := d1.result(id)
	d1.kill() // die without drain: the store holds nothing for this job

	d2 := startDaemon(t, store)
	rec := d2.recoveryMetrics()
	if rec["requeued_jobs"] != 0 {
		t.Fatalf("recovery metrics = %v, want no requeues (job was terminal)", rec)
	}
	// An identical resubmission finds an empty store and recomputes every
	// cell to the same bytes the memory-served first life produced.
	code, id2 := d2.submit(tinyJob)
	if code != 202 {
		t.Fatalf("resubmit: HTTP %d", code)
	}
	d2.waitDone(id2)
	if got := d2.result(id2); !bytes.Equal(got, first) {
		t.Errorf("recomputed result differs from the memory-served one")
	}
	if st := d2.job(id2); st.FromStore != 0 {
		t.Errorf("from_store = %d after a full-disk first life, want 0", st.FromStore)
	}
}
