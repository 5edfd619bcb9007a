package harness

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/stagger"
)

// bigCell is a cell far too large to finish in the cancellation tests'
// grace windows: at the benchmarked ~3M simulated events/s a million
// list operations take tens of seconds, and the tests cancel within
// milliseconds. If cancellation ever regresses back to draining queued
// or in-flight work, these tests time out instead of passing slowly.
func bigCell(seed int64) RunConfig {
	return RunConfig{Benchmark: "list-hi", Mode: stagger.ModeStaggeredHW,
		Threads: 4, Seed: seed, TotalOps: 1_000_000}
}

// TestRunCtxCancelsMidRun: cancelling the context must abandon a single
// in-flight simulation promptly (one globally ordered event per core),
// returning an error that wraps context.Canceled.
func TestRunCtxCancelsMidRun(t *testing.T) {
	ClearCache()
	defer ClearCache()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunCtx(ctx, bigCell(3))
	elapsed := time.Since(start)
	if res != nil || err == nil {
		t.Fatalf("RunCtx = (%v, %v), want (nil, cancellation error)", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	// Generous bound: abandoning takes one event per core, the full run
	// tens of seconds. A drained run fails this loudly.
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v, should abandon almost immediately", elapsed)
	}
}

// TestRunAllCancelPromptAndCacheConsistent: a cancelled sweep must (a)
// return within one run's duration instead of draining queued cells, and
// (b) leave the memo as it found it — the sweep runner writes nothing
// there, completed or cancelled, so later callers compute from scratch.
func TestRunAllCancelPromptAndCacheConsistent(t *testing.T) {
	ClearCache()
	defer ClearCache()
	small := RunConfig{Benchmark: "list-hi", Mode: stagger.ModeStaggeredHW,
		Threads: 4, Seed: 11, TotalOps: 80}
	cfgs := []RunConfig{small, bigCell(5), bigCell(6), bigCell(7), bigCell(8)}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	out := RunAll(ctx, cfgs, 2) // 2 workers: cells 2.. stay queued behind the big ones
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled sweep took %v, should abandon almost immediately", elapsed)
	}
	if len(out) != len(cfgs) {
		t.Fatalf("got %d outcomes, want %d", len(out), len(cfgs))
	}
	sawCancel := 0
	for i, o := range out {
		if o.Err != nil {
			if !errors.Is(o.Err, context.Canceled) {
				t.Fatalf("cell %d error %v does not wrap context.Canceled", i, o.Err)
			}
			sawCancel++
		}
	}
	if sawCancel == 0 {
		t.Fatal("no cell observed the cancellation")
	}

	if n := memoSize(); n != 0 {
		t.Fatalf("cancelled sweep left %d results in the memo", n)
	}
	// And the small cell, if it completed, must agree with a fresh compute.
	if out[0].Err == nil {
		fresh, err := Run(small)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Makespan() != out[0].Res.Makespan() || fresh.Stats.Commits != out[0].Res.Stats.Commits {
			t.Fatal("completed cell's result differs from a fresh compute")
		}
	}
}

// TestSweepIsolatesPanics: a panicking cell must become a *PanicError
// outcome, stack attached, without disturbing its siblings — at every
// worker count, the sequential loop included.
func TestSweepIsolatesPanics(t *testing.T) {
	ClearCache()
	defer ClearCache()
	good := RunConfig{Benchmark: "list-hi", Mode: stagger.ModeStaggeredHW,
		Threads: 2, Seed: 13, TotalOps: 60}
	bad := good
	// A runtime override with a lock table that is not a power of two
	// fails stagger.Config validation, which panics inside the run — the
	// exact poisoned-config shape the service layer must survive.
	sc := stagger.DefaultConfig(stagger.ModeStaggeredHW)
	sc.NumLocks = 3
	bad.Stagger = &sc

	for _, workers := range []int{1, 2} {
		out := RunAll(context.Background(), []RunConfig{good, bad, good}, workers)
		if out[0].Err != nil || out[2].Err != nil {
			t.Fatalf("workers=%d: healthy cells failed: %v / %v", workers, out[0].Err, out[2].Err)
		}
		var pe *PanicError
		if !errors.As(out[1].Err, &pe) || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: poisoned cell outcome %v, want *PanicError with its stack", workers, out[1].Err)
		}
	}
}
