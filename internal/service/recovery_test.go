package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/testutil"
	"repro/internal/vfs"
)

// seedJournal authors a journal the way a SIGKILLed daemon would have
// left it: records appended, nothing compacted, no clean-shutdown
// truncation. It returns the journal path.
func seedJournal(t *testing.T, dir string, recs ...journal.Record) string {
	t.Helper()
	path := filepath.Join(dir, "journal", "jobs.wal")
	j, _, err := journal.Open(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A job the journal shows accepted (and even running) when the process
// died must be re-enqueued under its original ID and driven to done.
func TestBootReplayReenqueuesUnfinishedJob(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	dir := t.TempDir()
	spec := tinySpec(11)
	// The running record is the old-journal case: daemons no longer
	// append one, but a journal written by an older daemon holds it, and
	// it must fold like accepted (non-terminal: re-enqueue).
	seedJournal(t, dir,
		journal.Record{Type: journal.RecAccepted, Job: "job-000003", Spec: mustJSON(t, spec)},
		journal.Record{Type: journal.RecRunning, Job: "job-000003"},
	)

	s := newT(t, Config{StoreDir: dir})
	j, ok := s.Job("job-000003")
	if !ok {
		t.Fatal("journaled job not rebuilt at boot")
	}
	st := waitJob(t, j)
	if st.State != JobDone {
		t.Fatalf("recovered job ended %+v", st)
	}
	if !st.Recovered {
		t.Fatal("status does not mark the job recovered")
	}
	m := s.Metrics()
	if m.Recovery == nil || m.Recovery.ReplayedRecords != 2 || m.Recovery.RequeuedJobs != 1 {
		t.Fatalf("recovery metrics = %+v, want 2 replayed / 1 requeued", m.Recovery)
	}
	// The restored ID counter must not reissue the recovered ID.
	j2, err := s.Submit(tinySpec(12))
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() <= "job-000003" {
		t.Fatalf("fresh job got ID %s, want one past the recovered job", j2.ID())
	}
	s.Close()
	testutil.WaitNoGoroutineLeaks(t, baseline)
}

// A spec journaled by a daemon from before CacheSchema 5 may carry the
// `hardened` cell field. Submit refuses it today (TestSubmitValidation),
// but an already acknowledged job must still reach a terminal state:
// replay reads specs leniently, the dead field falls away, and the cells
// run on the paper's runtime.
func TestBootReplayAcceptsPreUpgradeSpec(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir, journal.Record{Type: journal.RecAccepted, Job: "job-000007", Spec: json.RawMessage(
		`{"kind":"chaos","cells":[{"bench":"list-hi","threads":2,"seed":31,"ops":200,"hardened":true}],"chaos_rates":[0.01]}`)})
	s := newT(t, Config{StoreDir: dir})
	j, ok := s.Job("job-000007")
	if !ok {
		t.Fatal("pre-upgrade job dropped at boot")
	}
	if st := waitJob(t, j); st.State != JobDone {
		t.Fatalf("pre-upgrade job ended %+v", st)
	}
}

// Jobs the journal shows terminal must NOT come back, and replay must
// fold duplicate records (a crash mid-compaction can leave them) into
// one job, never two.
func TestBootReplaySkipsTerminalAndDuplicates(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(21)
	seedJournal(t, dir,
		journal.Record{Type: journal.RecAccepted, Job: "job-000001", Spec: mustJSON(t, spec)},
		journal.Record{Type: journal.RecDone, Job: "job-000001"},
		journal.Record{Type: journal.RecAccepted, Job: "job-000002", Spec: mustJSON(t, spec)},
		journal.Record{Type: journal.RecAccepted, Job: "job-000002", Spec: mustJSON(t, spec)},
		journal.Record{Type: journal.RecAccepted, Job: "job-000004", Spec: mustJSON(t, spec)},
		journal.Record{Type: journal.RecCanceled, Job: "job-000004"},
	)
	s := newT(t, Config{StoreDir: dir})
	if _, ok := s.Job("job-000001"); ok {
		t.Fatal("done job resurrected")
	}
	if _, ok := s.Job("job-000004"); ok {
		t.Fatal("canceled job resurrected")
	}
	j, ok := s.Job("job-000002")
	if !ok {
		t.Fatal("live job not rebuilt")
	}
	if n := len(s.Jobs()); n != 1 {
		t.Fatalf("%d jobs rebuilt, want 1 (duplicates folded)", n)
	}
	waitJob(t, j)
	if m := s.Metrics(); m.Recovery.RequeuedJobs != 1 {
		t.Fatalf("recovery metrics = %+v", m.Recovery)
	}
}

// A sweep interrupted mid-flight resumes from the content-addressed
// store, recomputing only the missing cells, and the final payloads are
// byte-identical to an uninterrupted run. The first life reaches its
// partial state on the real path: cells 0 and 1 finish and are persisted
// as they are delivered, cell 2 never returns, and the disk dies the
// instant cell 1's entry has landed.
func TestResumedSweepRecomputesOnlyMissingCells(t *testing.T) {
	sweep := JobSpec{Cells: []harness.Cell{
		{Bench: "list-hi", Threads: 2, Seed: 1, Ops: 200},
		{Bench: "list-hi", Threads: 2, Seed: 2, Ops: 200},
		{Bench: "list-hi", Threads: 2, Seed: 3, Ops: 200},
	}}

	// Reference: an uninterrupted run in a throwaway life.
	ref := newT(t, Config{StoreDir: t.TempDir()})
	rj, err := ref.Submit(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, rj); st.State != JobDone {
		t.Fatalf("reference run: %+v", st)
	}
	want := rj.payloads()

	// First life: real simulations for cells 0-1, then cell 2 hangs. The
	// second store rename is the crash point: the entry lands, then the
	// filesystem is wedged, so nothing this life does afterwards (not even
	// its shutdown) reaches the disk — what a SIGKILL there leaves behind.
	dir := t.TempDir()
	fp, err := chaos.ParseFailpoints("rename:objects=crash@2")
	if err != nil {
		t.Fatal(err)
	}
	disk := &vfs.FaultFS{Base: vfs.OS, FP: fp}
	stuck := make(chan struct{})
	s1 := newT(t, Config{StoreDir: dir, FS: disk, Grace: time.Millisecond,
		sweep: seam(func(ctx context.Context, i int, rc harness.RunConfig) (o harness.RunOutcome) {
			if i == 2 {
				close(stuck)
				<-ctx.Done()
				return harness.RunOutcome{Err: ctx.Err()}
			}
			o.Res, o.Err = harness.RunCtx(ctx, rc)
			return o
		})})
	j1, err := s1.Submit(sweep)
	if err != nil {
		t.Fatal(err)
	}
	<-stuck
	if st := j1.Status(); st.State != JobRunning || !disk.Crashed() {
		t.Fatalf("first life: job %s, disk crashed=%v; want a running job on a dead disk", st.State, disk.Crashed())
	}
	for i, durable := range []bool{true, true, false} {
		_, err := os.Stat(entryFile(dir, j1.plan.keys[i]))
		if (err == nil) != durable {
			t.Fatalf("cell %d durable while the job is still running = %v, want %v", i, err == nil, durable)
		}
	}

	// Second life, booted on the directory while the first still hangs.
	s2 := newT(t, Config{StoreDir: dir})
	j2, ok := s2.Job(j1.ID())
	if !ok {
		t.Fatal("crashed sweep not rebuilt")
	}
	st := waitJob(t, j2)
	if st.State != JobDone {
		t.Fatalf("resumed sweep: %+v", st)
	}
	if st.FromStore != 2 || st.Computed != 1 {
		t.Fatalf("resume accounting: FromStore=%d Computed=%d, want 2/1", st.FromStore, st.Computed)
	}
	got := j2.payloads()
	if len(got) != len(want) {
		t.Fatalf("payload count %d != %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("cell %d differs from the uninterrupted reference run", i)
		}
	}
	if m := s2.Metrics(); m.Recovery.ResumedCells != 2 {
		t.Fatalf("ResumedCells = %d, want 2 (%+v)", m.Recovery.ResumedCells, m.Recovery)
	}
}

// A torn journal tail (the crash hit mid-append) is quarantined at boot;
// the intact prefix still recovers and the journal keeps working.
func TestBootQuarantinesTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(31)
	path := seedJournal(t, dir,
		journal.Record{Type: journal.RecAccepted, Job: "job-000001", Spec: mustJSON(t, spec)},
	)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := newT(t, Config{StoreDir: dir})
	j, ok := s.Job("job-000001")
	if !ok {
		t.Fatal("intact prefix not recovered past the torn tail")
	}
	waitJob(t, j)
	m := s.Metrics()
	if m.Recovery.QuarantinedTailBytes != 6 {
		t.Fatalf("QuarantinedTailBytes = %d, want 6", m.Recovery.QuarantinedTailBytes)
	}
	if _, err := s.Submit(tinySpec(32)); err != nil {
		t.Fatalf("submit after tail repair: %v", err)
	}
	ents, _ := os.ReadDir(filepath.Dir(path))
	var sidecars int
	for _, e := range ents {
		if strings.Contains(e.Name(), ".quarantine.") {
			sidecars++
		}
	}
	if sidecars != 1 {
		t.Fatalf("%d quarantine sidecars, want 1", sidecars)
	}
}

// Idempotency keys: a duplicate submit returns the existing job, a
// conflicting reuse is rejected, and the index survives a crash so a
// client resubmitting across the restart still deduplicates.
func TestIdempotencyKeyDedupes(t *testing.T) {
	dir := t.TempDir()
	s := newT(t, Config{StoreDir: dir})
	spec := tinySpec(41)
	spec.IdempotencyKey = "sweep-nightly-41"
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID() != j2.ID() {
		t.Fatalf("duplicate submit created %s and %s", j1.ID(), j2.ID())
	}
	other := tinySpec(42)
	other.IdempotencyKey = "sweep-nightly-41"
	if _, err := s.Submit(other); !errors.Is(err, ErrIdemConflict) {
		t.Fatalf("conflicting reuse = %v, want ErrIdemConflict", err)
	}
	waitJob(t, j1)
}

func TestIdempotencyKeySurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(51)
	spec.IdempotencyKey = "resumable-51"
	seedJournal(t, dir,
		journal.Record{Type: journal.RecAccepted, Job: "job-000006", Idem: "resumable-51", Spec: mustJSON(t, spec)},
	)
	s := newT(t, Config{StoreDir: dir})
	// The client never heard back and blindly resubmits: it must get the
	// recovered job, not a duplicate.
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-000006" {
		t.Fatalf("resubmit created %s, want the recovered job-000006", j.ID())
	}
	if st := waitJob(t, j); st.State != JobDone || st.Idem != "resumable-51" {
		t.Fatalf("recovered idempotent job: %+v", st)
	}
}

// When the journal cannot make an accepted record durable, Submit must
// refuse the job (503 over HTTP) rather than accept work it could lose.
func TestSubmitRejectedWhenJournalFails(t *testing.T) {
	fp, err := chaos.ParseFailpoints("sync:jobs.wal=error@3")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := newT(t, Config{StoreDir: dir, FS: &vfs.FaultFS{Base: vfs.OS, FP: fp}})
	// Sync hit 1 was the boot-time magic header and hit 2 the boot
	// compaction's temp file (jobs.wal.compact-*); hit 3 is this
	// submit's accepted record.
	_, err = s.Submit(tinySpec(61))
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("submit with failing journal = %v, want ErrJournal", err)
	}
	// The journal wedges until restart; later submits are refused too.
	_, err = s.Submit(tinySpec(62))
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("submit on wedged journal = %v, want ErrJournal", err)
	}
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(tinySpec(63))
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
	if rec.Code != 503 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("HTTP submit = %d (Retry-After %q), want 503 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	if m := s.Metrics(); m.Recovery.JournalErrors == 0 || m.Accepted != 0 {
		t.Fatalf("metrics after journal failure: %+v", m)
	}
}

// Clean shutdown compacts the journal to just its header, so the next
// boot replays nothing.
func TestCleanShutdownCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	s := newT(t, Config{StoreDir: dir})
	j, err := s.Submit(tinySpec(71))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	s.Close()

	s2 := newT(t, Config{StoreDir: dir})
	m := s2.Metrics()
	if m.Recovery.ReplayedRecords != 0 || m.Recovery.RequeuedJobs != 0 {
		t.Fatalf("boot after clean shutdown replayed %+v, want nothing", m.Recovery)
	}
	if len(s2.Jobs()) != 0 {
		t.Fatal("jobs resurrected after clean shutdown")
	}
}

// Journal traffic is visible in /metrics: one append per durable
// lifecycle record — accepted and the terminal one, nothing for the
// worker picking the job up — and compactions on drain.
func TestMetricsExposeJournalStats(t *testing.T) {
	dir := t.TempDir()
	s := newT(t, Config{StoreDir: dir})
	j, err := s.Submit(tinySpec(81))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	// Waiters are released before the done record is appended; Close
	// returns once the worker that appends it has stopped.
	s.Close()
	if m := s.Metrics(); m.Journal == nil || m.Journal.Appends != 2 {
		t.Fatalf("journal stats = %+v, want exactly 2 appends (accepted, done)", m.Journal)
	}
	var wire struct {
		Recovery *RecoveryStats `json:"recovery"`
		Journal  *journal.Stats `json:"journal"`
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Recovery == nil || wire.Journal == nil {
		t.Fatalf("/metrics missing recovery/journal sections: %s", rec.Body.String())
	}
}

// Memory-only servers (no StoreDir, no JournalPath) run without a
// journal: no recovery section, submits never touch a disk.
func TestMemoryOnlyServerHasNoJournal(t *testing.T) {
	s := newT(t, Config{})
	j, err := s.Submit(tinySpec(91))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if m := s.Metrics(); m.Recovery != nil || m.Journal != nil {
		t.Fatalf("memory-only metrics grew durability sections: %+v", m)
	}
}
