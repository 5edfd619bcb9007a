package service

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/testutil"
)

// TestDrainUnderChaosCompletesWithinGrace is the drain acceptance case,
// against the real engine: with a long chaos campaign in flight, drain
// must flip readiness immediately, reject new admissions, finish within
// the grace period by cancelling the in-flight simulation mid-run, and
// leave no goroutines behind.
func TestDrainUnderChaosCompletesWithinGrace(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	const grace = 500 * time.Millisecond
	s, err := New(Config{StoreDir: t.TempDir(), JobWorkers: 2, Grace: grace, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	// A chaos cell far too large to finish during the test: at ~3M
	// simulated events/s a million list operations run for tens of
	// seconds, so only cancellation can end it inside the grace window.
	spec := JobSpec{Kind: KindChaos,
		Cells:      []harness.Cell{{Bench: "list-hi", Threads: 4, Seed: 5, Ops: 1_000_000}},
		ChaosRates: []float64{0.01},
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobRunning)

	start := time.Now()
	s.BeginDrain()

	// Readiness flips immediately, on both the API and the HTTP surface.
	if s.Ready() {
		t.Fatal("Ready() true after BeginDrain")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("readyz during drain = %d, want 503", rec.Code)
	}
	if _, err := s.Submit(tinySpec(9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain = %v, want ErrDraining", err)
	}
	if m := s.Metrics(); !m.Draining || m.ShedDraining == 0 {
		t.Fatalf("metrics during drain: %+v", m)
	}

	// The pool must stop within grace plus cancellation latency (one
	// simulated event per core), far under the full job's runtime.
	select {
	case <-s.Drained():
	case <-time.After(grace + 5*time.Second):
		t.Fatal("drain did not complete; in-flight chaos job was not cancelled")
	}
	if elapsed := time.Since(start); elapsed < grace {
		// Sanity: the job really was in flight, not already done.
		t.Logf("drain finished in %v (job finished on its own?)", elapsed)
	}

	// The abandoned job terminated as cancelled work, not success.
	st := j.Status()
	if st.State != JobFailed && st.State != JobCanceled {
		t.Fatalf("in-flight job ended %q, want failed/canceled", st.State)
	}
	if st.State == JobFailed && !strings.Contains(st.Error, "context canceled") {
		t.Fatalf("job error %q does not show cancellation", st.Error)
	}

	// Zero leaked goroutines: the count returns to the pre-server
	// baseline (with slack for runtime background threads).
	testutil.WaitNoGoroutineLeaks(t, baseline)
}

// TestDrainIdleServerIsImmediate: draining with nothing in flight closes
// the pool without waiting for the grace period.
func TestDrainIdleServerIsImmediate(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Grace: 30 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s.BeginDrain()
	select {
	case <-s.Drained():
	case <-time.After(5 * time.Second):
		t.Fatal("idle drain hung")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("idle drain took %v, should not consume the grace period", elapsed)
	}
}
