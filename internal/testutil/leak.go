// Package testutil holds small helpers shared by the repo's test
// suites. It is imported only from _test.go files; keeping the helpers
// in a real package (rather than copy-pasted per suite) lets the drain,
// recovery, and crash tests assert identical hygiene invariants.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// GoroutineBaseline snapshots the current goroutine count. Call it
// before constructing the system under test, then hand the result to
// WaitNoGoroutineLeaks after tearing it down.
func GoroutineBaseline() int { return runtime.NumGoroutine() }

// WaitNoGoroutineLeaks fails t unless the goroutine count settles back
// to the baseline (plus slack for runtime background goroutines) within
// a few seconds. Shutdown is asynchronous — workers unwind after
// Drained() closes — so the assertion polls with a bounded number of
// fixed sleeps.
func WaitNoGoroutineLeaks(t testing.TB, baseline int) {
	t.Helper()
	const (
		slack    = 2
		attempts = 500 // x 10ms = ~5s bound
	)
	for i := 0; i < attempts; i++ {
		if runtime.NumGoroutine() <= baseline+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d > baseline %d (+%d slack)\n%s",
		runtime.NumGoroutine(), baseline, slack, buf[:runtime.Stack(buf, true)])
}
