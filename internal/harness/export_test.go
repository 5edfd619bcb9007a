package harness

import (
	"context"

	"repro/internal/mem"
)

// NewPreparedRunner returns a function whose calls run one after another
// on one prepared cell, as a sweep worker's schedules do in Explore, and
// one returning the memory the last successful call left. Like
// ExploreObserved, it exists for the tests in package harness_test, which
// can import what this package cannot (internal/obs imports it).
func NewPreparedRunner() (run func(RunConfig) (*Result, error), memory func() *mem.Memory) {
	p := new(prepared)
	return func(rc RunConfig) (*Result, error) { return p.run(context.Background(), rc) },
		func() *mem.Memory { return p.mach.Mem }
}

// ExploreObserved is Explore with its tap: observe sees every schedule's
// Result, in run order.
func ExploreObserved(ec ExploreConfig, observe func(i int, res *Result)) (*ExploreReport, error) {
	return explore(context.Background(), ec.cell(), ec.Runs, false, observe)
}

// Normalized is rc as its run path spells it (see normalize), for the
// Cell round trip in package harness_test.
func Normalized(rc RunConfig) (RunConfig, error) {
	c, err := normalize(rc)
	return c.rc, err
}
