package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// seedRawJournal writes each payload as one CRC frame after the magic
// header, byte for byte as every daemon version has framed records, so
// a test can pin records shaped as an older daemon wrote them.
func seedRawJournal(t *testing.T, dir string, payloads ...string) {
	t.Helper()
	path := filepath.Join(dir, "journal", "jobs.wal")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	buf := []byte("staggerwal 1\n")
	for _, p := range payloads {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE([]byte(p)))
		buf = append(buf, p...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
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
		journal.Record{Type: "running", Job: "job-000003"},
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
	if m.Recovery == nil || m.Journal.Replayed != 2 || m.Recovery.RequeuedJobs != 1 {
		t.Fatalf("recovery metrics = %+v %+v, want 2 replayed / 1 requeued", m.Journal, m.Recovery)
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

// An unfinished job journaled under each spelling of a kind replays to
// the kind and keys it was accepted with.
func TestBootReplaysEverySpelling(t *testing.T) {
	dir := t.TempDir()
	var recs []journal.Record
	for i, sp := range spellings {
		recs = append(recs, journal.Record{Type: journal.RecAccepted, Job: fmt.Sprintf("job-%06d", i+1), Spec: json.RawMessage(sp.body)})
	}
	seedJournal(t, dir, recs...)
	s := newT(t, Config{StoreDir: dir,
		sweep: seam(func(context.Context, int, harness.RunConfig) harness.RunOutcome { return ok() })})
	for i, sp := range spellings {
		j, ok := s.Job(fmt.Sprintf("job-%06d", i+1))
		if !ok {
			t.Fatalf("%s: journaled job dropped at boot", sp.name)
		}
		if j.plan.kind != sp.kind || !slices.Equal(j.plan.keys, sp.keys) {
			t.Errorf("%s: replayed as kind %s keys %q, want kind %s keys %q", sp.name, j.plan.kind, j.plan.keys, sp.kind, sp.keys)
		}
	}
}

// An unfinished explore job from a daemon that served them, spelled by
// its kind or by its campaign field alone, is dropped at boot through
// the "no longer plans" log. Replay decodes leniently, so without the
// refused field the second spelling would decode to an empty spec and
// sweep every workload. The dropped jobs' IDs stay issued: boot
// compaction keeps the newest one as the high-water mark, so a fresh
// job two lives later still numbers past them.
func TestBootReplayDropsExploreJobs(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir,
		journal.Record{Type: journal.RecAccepted, Job: "job-000001", Spec: json.RawMessage(
			`{"kind":"explore","explore":{"cell":{"bench":"list-hi","threads":2,"ops":120},"runs":3}}`)},
		journal.Record{Type: journal.RecAccepted, Job: "job-000002", Spec: json.RawMessage(
			`{"explore":{"cell":{"bench":"list-hi","threads":2,"ops":120},"sched":"pct:3","runs":3}}`)},
	)
	var (
		logMu sync.Mutex
		logs  []string
	)
	s := newT(t, Config{StoreDir: dir, Logf: func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d explore jobs rebuilt at boot, want 0: %+v", n, s.Jobs())
	}
	if m := s.Metrics(); m.Recovery.RequeuedJobs != 0 {
		t.Fatalf("recovery metrics = %+v, want 0 requeued", m.Recovery)
	}
	logMu.Lock()
	for _, id := range []string{"job-000001", "job-000002"} {
		if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, id+" no longer plans") }) {
			t.Errorf("%s dropped without its log line; logs:\n%s", id, strings.Join(logs, "\n"))
		}
	}
	logMu.Unlock()
	s.Close()
	j, err := newT(t, Config{StoreDir: dir}).Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-000003" {
		t.Fatalf("fresh job after the drops took %s, want job-000003", j.ID())
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
	want := results(t, ref, rj)

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
	got := results(t, s2, j2)
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

// A torn journal tail (the crash hit mid-append) is truncated at boot,
// with no copy kept beside the journal; the intact prefix still recovers
// and the journal keeps working.
func TestBootTruncatesTornJournalTail(t *testing.T) {
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
	if m.Journal.TruncatedBytes != 6 {
		t.Fatalf("TruncatedBytes = %d, want 6", m.Journal.TruncatedBytes)
	}
	if _, err := s.Submit(tinySpec(32)); err != nil {
		t.Fatalf("submit after tail repair: %v", err)
	}
	if ents, _ := os.ReadDir(filepath.Dir(path)); len(ents) != 1 || ents[0].Name() != filepath.Base(path) {
		t.Fatalf("journal directory holds %v, want only %s", ents, filepath.Base(path))
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
		journal.Record{Type: journal.RecAccepted, Job: "job-000006", Spec: mustJSON(t, spec)},
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

// A journal written by an older daemon still replays: its records carry
// "seq" and "idem" keys, and its workers journaled "running". The job is
// requeued, and its idempotency key, which the accepted spec has always
// carried, dedupes a blind resubmit.
func TestBootReplaysOlderJournalFormat(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(53)
	spec.IdempotencyKey = "older-53"
	seedRawJournal(t, dir,
		fmt.Sprintf(`{"seq":1,"type":"accepted","job":"job-000009","idem":"older-53","spec":%s}`, mustJSON(t, spec)),
		`{"seq":2,"type":"running","job":"job-000009"}`,
	)
	s := newT(t, Config{StoreDir: dir})
	if m := s.Metrics(); m.Journal.Replayed != 2 || m.Recovery.RequeuedJobs != 1 {
		t.Fatalf("recovery metrics = %+v %+v, want 2 replayed / 1 requeued", m.Journal, m.Recovery)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-000009" {
		t.Fatalf("resubmit created %s, want the recovered job-000009", j.ID())
	}
	if st := waitJob(t, j); st.State != JobDone || !st.Recovered || st.Idem != "older-53" {
		t.Fatalf("recovered older-format job: %+v", st)
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
	var (
		logMu sync.Mutex
		logs  []string
	)
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	s := newT(t, Config{StoreDir: dir, FS: &vfs.FaultFS{Base: vfs.OS, FP: fp}, Logf: logf})
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
	if m := s.Metrics(); m.Journal.AppendErrors == 0 || m.Accepted != 0 {
		t.Fatalf("metrics after journal failure: %+v", m)
	}
	// A wedged journal refuses a submission before planning it: a spec
	// that does not plan gets ErrJournal, not its plan error.
	unplannable := JobSpec{Cells: []harness.Cell{{Bench: "no-such-bench", Threads: 2}}}
	if _, err := s.Submit(unplannable); !errors.Is(err, ErrJournal) {
		t.Fatalf("unplannable submit on wedged journal = %v, want ErrJournal", err)
	}
	// A refused submission takes no job ID, so no refusal names one.
	logMu.Lock()
	defer logMu.Unlock()
	refusals := 0
	for _, line := range logs {
		if strings.Contains(line, "refused") {
			refusals++
			if strings.Contains(line, "job-") {
				t.Errorf("refusal log line names a job ID: %q", line)
			}
		}
	}
	if refusals == 0 {
		t.Fatalf("no refusal logged for the failed append; log: %q", logs)
	}
}

// Clean shutdown leaves the journal as it is. The next boot replays it,
// requeues nothing, and compacts it to its header plus one record: the
// finished job's done record, the ID counter's high-water mark.
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
	if m.Journal.Replayed != 2 || m.Recovery.RequeuedJobs != 0 {
		t.Fatalf("boot after clean shutdown: %+v %+v, want 2 replayed (accepted, done), 0 requeued", m.Journal, m.Recovery)
	}
	if len(s2.Jobs()) != 0 {
		t.Fatal("jobs resurrected after clean shutdown")
	}
	s2.Close()
	jnl, rep, err := journal.Open(vfs.OS, filepath.Join(dir, "journal", "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if len(rep.Records) != 1 || rep.TruncatedBytes != 0 ||
		rep.Records[0].Type != journal.RecDone || rep.Records[0].Job != j.ID() {
		t.Fatalf("compacted journal replays %+v, want only %s's done record", rep, j.ID())
	}
}

// Job IDs are never reissued across restarts, idle lives included: the
// boot compaction keeps the newest job's terminal record, so a client
// still holding an old ID gets 404, never another job's status and
// result.
func TestJobIDsNeverReissuedAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	var ids []string
	for _, seed := range []int64{101, 0, 102, 103} { // 0: a life that submits nothing
		s := newT(t, Config{StoreDir: dir})
		for _, old := range ids {
			if _, ok := s.Job(old); ok {
				t.Fatalf("finished %s is back in the table after a restart", old)
			}
		}
		if seed != 0 {
			j, err := s.Submit(tinySpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, j)
			ids = append(ids, j.ID())
		}
		s.Close()
	}
	if want := []string{"job-000001", "job-000002", "job-000003"}; !slices.Equal(ids, want) {
		t.Fatalf("four lives handed out %v, want %v", ids, want)
	}
}

// Journal traffic is visible in /metrics: one append per durable
// lifecycle record — accepted and the terminal one, nothing for the
// worker picking the job up — and the boot compaction. So are the two
// ways a stored cell is served: the first same-life resubmission reads
// it from disk (store hits) and holds it, and the second is served from
// the held index (held_hits) and reads nothing from disk.
func TestMetricsExposeJournalStats(t *testing.T) {
	dir := t.TempDir()
	s := newT(t, Config{StoreDir: dir})
	j, err := s.Submit(tinySpec(81))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	served := make([]Metrics, 0, 3) // before each resubmission, and after the last
	for k := 0; k < 2; k++ {
		served = append(served, s.Metrics())
		again, err := s.Submit(tinySpec(81))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, again); st.State != JobDone || st.FromStore != st.Cells {
			t.Fatalf("resubmission %d: %+v, want every cell from the store", k, st)
		}
	}
	// Waiters are released before the done record is appended; Close
	// returns once the worker that appends it has stopped.
	s.Close()
	m := s.Metrics()
	served = append(served, m)
	if m.Journal == nil || m.Journal.Appends != 6 {
		t.Fatalf("journal stats = %+v, want exactly 6 appends (accepted, done per job)", m.Journal)
	}
	for k, want := range [][2]uint64{{0, 1}, {1, 0}} {
		held, hits := served[k+1].HeldHits-served[k].HeldHits, served[k+1].Store.Hits-served[k].Store.Hits
		if held != want[0] || hits != want[1] {
			t.Fatalf("resubmission %d of a 1-cell job moved held_hits by %d and store hits by %d, want %d and %d",
				k, held, hits, want[0], want[1])
		}
	}
	var wire struct {
		HeldHits *uint64           `json:"held_hits"`
		Recovery map[string]uint64 `json:"recovery"`
		Journal  map[string]uint64 `json:"journal"`
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Recovery == nil || wire.Journal == nil {
		t.Fatalf("/metrics missing recovery/journal sections: %s", rec.Body.String())
	}
	if wire.HeldHits == nil || *wire.HeldHits != m.HeldHits {
		t.Fatalf("/metrics held_hits missing or not %d: %s", m.HeldHits, rec.Body.String())
	}
	// Each journal counter is reported once, in the journal's own section.
	for k := range wire.Recovery {
		if _, dup := wire.Journal[k]; dup {
			t.Fatalf("/metrics reports %q under both recovery and journal: %s", k, rec.Body.String())
		}
	}
	if _, ok := wire.Journal["truncated_tail_bytes"]; !ok || len(wire.Recovery) != 2 {
		t.Fatalf("/metrics recovery %v, journal %v; want requeued_jobs and resumed_cells beside the journal's truncated_tail_bytes",
			wire.Recovery, wire.Journal)
	}
}

// A payload the store could not take is not held: every store write
// fails, so a same-life resubmission finds nothing stored and recomputes
// every cell, though each job still serves its own bytes from memory,
// with no fetch-time recompute.
func TestUnstoredPayloadNotHeld(t *testing.T) {
	fp, err := chaos.ParseFailpoints("write:objects=enospc@*")
	if err != nil {
		t.Fatal(err)
	}
	s := newT(t, Config{StoreDir: t.TempDir(), FS: &vfs.FaultFS{Base: vfs.OS, FP: fp}})
	spec := JobSpec{Cells: []harness.Cell{
		{Bench: "list-hi", Threads: 2, Seed: 1, Ops: 200},
		{Bench: "list-hi", Threads: 2, Seed: 2, Ops: 200},
	}}
	var want [][]byte
	for k := 0; k < 2; k++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j)
		if st.State != JobDone || st.FromStore != 0 || st.Computed != 2 {
			t.Fatalf("submit %d over a store that takes no writes: %+v, want done with both cells computed", k, st)
		}
		if want == nil {
			want = results(t, s, j)
		} else if got := results(t, s, j); !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
			t.Fatal("the recomputed resubmission served different bytes")
		}
		if got := resultBody(t, s, j); j.results[0] == nil || j.results[1] == nil || !bytes.Equal(got, resultOf(j.results)) {
			t.Fatalf("submit %d: /result does not serve the bytes the job kept:\n%s", k, got)
		}
	}
	if m := s.Metrics(); m.HeldHits != 0 || m.Store.Puts != 0 || m.Store.Hits != 0 || m.Recomputes != 0 {
		t.Fatalf("metrics %+v (store %+v), want no held hits, puts, store hits or result recomputes", m, *m.Store)
	}
}

// Every server is durable: a Config without a StoreDir is refused, so
// no server runs without a store and a journal.
func TestNewRefusesNoStore(t *testing.T) {
	if s, err := New(Config{}); err == nil {
		s.Close()
		t.Fatal("New(Config{}) built a server with no store")
	}
}

// syncCountFS counts fsyncs on every file opened for writing.
type syncCountFS struct {
	vfs.FS
	syncs atomic.Int64
}

type syncCountFile struct {
	vfs.File
	syncs *atomic.Int64
}

func (f syncCountFile) Sync() error { f.syncs.Add(1); return f.File.Sync() }

func (c *syncCountFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return syncCountFile{f, &c.syncs}, nil
}

func (c *syncCountFS) Create(name string) (vfs.File, error) { return c.wrap(c.FS.Create(name)) }
func (c *syncCountFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}
func (c *syncCountFS) OpenAppend(name string) (vfs.File, error) { return c.wrap(c.FS.OpenAppend(name)) }

// A journaled server sheds a full queue before it journals: the refused
// submission appends no record, costs no fsync and takes no job ID, so
// the next admitted job gets the ID after the last one handed out.
func TestAdmissionShedsBeforeJournal(t *testing.T) {
	release := make(chan struct{})
	fsys := &syncCountFS{FS: vfs.OS}
	s := newT(t, Config{StoreDir: t.TempDir(), FS: fsys, JobWorkers: 1, QueueDepth: 1,
		Grace: 100 * time.Millisecond, sweep: blockingSeam(release)})
	j0, err := s.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j0, JobRunning)
	j1, err := s.Submit(tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	appends, syncs := s.Metrics().Journal.Appends, fsys.syncs.Load()
	if _, err := s.Submit(tinySpec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue Submit = %v, want ErrQueueFull", err)
	}
	if m := s.Metrics(); m.Journal.Appends != appends || fsys.syncs.Load() != syncs || m.ShedFull != 1 {
		t.Fatalf("shed submission: %d appends and %d fsyncs (shed %d), want none and 1 shed",
			m.Journal.Appends-appends, fsys.syncs.Load()-syncs, m.ShedFull)
	}
	close(release)
	waitJob(t, j0)
	waitJob(t, j1)
	j3, err := s.Submit(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID() != "job-000003" {
		t.Fatalf("first job admitted after the shed is %s, want job-000003", j3.ID())
	}
	waitJob(t, j3)
}
