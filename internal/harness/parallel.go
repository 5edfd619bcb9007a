package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Inter-run parallelism. Every simulation is deterministic in its
// RunConfig and shares no mutable state with any concurrent run: each Run
// builds a fresh workload module, machine, runtime, and oracle (the
// schedules of an Explore campaign reuse the first two and the oracle's
// shadow memory, but only one after another on one worker's prepared
// cell), and the sweep runner is an ordered parallel map over RunCtx that
// touches no cross-run structure. Independent cells of a sweep can
// therefore execute on as many OS threads as the host offers without
// perturbing a single simulated cycle — the intra-run virtual-time engine
// stays strictly serial, parallelism exists only BETWEEN runs. Results are
// always delivered in input order, never completion order, so every
// consumer (table assembly, campaign reports, CSV writers) emits bytes
// identical to a sequential sweep.

// defaultWorkers is the package-wide worker bound used by the table and
// figure generators and the campaign runners; cmd/paper and
// cmd/staggersim expose it as -workers. 1 reproduces the historical
// strictly sequential execution exactly (no pool, no extra goroutines).
var defaultWorkers atomic.Int32

func init() { defaultWorkers.Store(int32(runtime.NumCPU())) }

// SetWorkers sets the default sweep parallelism (n <= 0 restores the
// NumCPU default). It returns the previous value so tests can restore it.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return int(defaultWorkers.Swap(int32(n)))
}

// Workers returns the current default sweep parallelism.
func Workers() int { return int(defaultWorkers.Load()) }

// RunOutcome is one cell's result in a parallel sweep.
type RunOutcome struct {
	Res *Result
	Err error
}

// RunAll collects Sweep into a slice: every configuration's outcome,
// ordered by input index, whatever its siblings did.
func RunAll(ctx context.Context, cfgs []RunConfig, workers int) []RunOutcome {
	out := make([]RunOutcome, len(cfgs))
	// Sweep returns only what deliver returns, and this one cannot fail.
	_ = Sweep(ctx, cfgs, workers, func(i int, o RunOutcome) error {
		out[i] = o
		return nil
	})
	return out
}

// PanicError is a panic captured from one cell of a sweep. Error is one
// line; Stack is the panicking goroutine's trace, for whoever reports the
// error (the CLIs print it to stderr before exiting, the daemon logs it).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("harness: run panicked: %v", e.Value) }

// PanicStack returns the stack of the contained panic err wraps, nil if
// err wraps none.
func PanicStack(err error) []byte {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe.Stack
	}
	return nil
}

// runOne executes one cell on p. A panic inside it (a poisoned config, a
// workload bug) becomes that cell's *PanicError outcome: the recover sits
// around exactly one cell, so one poisoned cell cannot take its worker,
// its sweep, or the process down.
func runOne(ctx context.Context, rc RunConfig, p *prepared) (o RunOutcome) {
	defer func() {
		if r := recover(); r != nil {
			o = RunOutcome{Err: &PanicError{Value: r, Stack: debug.Stack()}}
		}
	}()
	if err := ctx.Err(); err != nil {
		return RunOutcome{Err: err}
	}
	o.Res, o.Err = p.run(ctx, rc)
	return o
}

// Sweep is the sweep primitive, the only function that starts sweep
// workers (in sweepWith, the form of it that Explore calls directly): it
// simulates every cell with at most workers concurrent runs
// (workers <= 0 uses the package default) and calls deliver once per
// cell, in input order, on the calling goroutine, as soon as the next
// index has landed — consumers stream without a barrier. Every cell is
// simulated: the generators' memo is neither read nor written (results
// does that). Cancelling ctx skips cells that have not started and
// abandons cells mid-simulation at their next globally ordered event
// (both outcomes carry ctx's error), so a cancelled sweep returns within
// roughly one simulated event, not after draining the queue. A non-nil
// error from deliver cancels the cells that have not started and is
// returned after the in-flight ones drain. With workers == 1 the loop is
// exactly the historical sequential sweep — same goroutine, same order,
// no pool.
func Sweep(ctx context.Context, cfgs []RunConfig, workers int, deliver func(i int, o RunOutcome) error) error {
	return sweepWith(ctx, cfgs, workers, func(ctx context.Context, _ int, rc RunConfig) RunOutcome {
		return runOne(ctx, rc, new(prepared))
	}, deliver)
}

// sweepWith is Sweep with the cell runner as a parameter, told which
// worker is calling it: worker is in [0, workers) after the defaulting
// below, and one worker's calls are sequential, so run may keep state per
// worker (Explore keeps a prepared cell) without synchronising it.
func sweepWith(ctx context.Context, cfgs []RunConfig, workers int,
	run func(ctx context.Context, worker int, rc RunConfig) RunOutcome,
	deliver func(i int, o RunOutcome) error) error {
	n := len(cfgs)
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i, rc := range cfgs {
			if err := deliver(i, run(ctx, 0, rc)); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	type completion struct {
		i int
		o RunOutcome
	}
	ch := make(chan completion, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				ch <- completion{i, run(ctx, w, cfgs[i])}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()

	// Reorder completions into input order; deliver as soon as the next
	// expected index lands, so consumers stream without a global barrier.
	buf := make([]RunOutcome, n)
	ready := make([]bool, n)
	delivered := 0
	var derr error
	for c := range ch {
		buf[c.i], ready[c.i] = c.o, true
		for derr == nil && delivered < n && ready[delivered] {
			if err := deliver(delivered, buf[delivered]); err != nil {
				derr = err
				cancel() // stop scheduling new cells; drain the rest
			}
			delivered++
		}
	}
	return derr
}
