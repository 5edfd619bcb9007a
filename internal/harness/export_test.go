package harness

import "context"

// NewPreparedRunner returns a function whose calls run one after another
// on one prepared cell, as a sweep worker's schedules do in Explore. It
// exists for the tests in package harness_test, which can import what
// this package cannot (internal/obs imports it).
func NewPreparedRunner() func(RunConfig) (*Result, error) {
	p := new(prepared)
	return func(rc RunConfig) (*Result, error) { return p.run(context.Background(), rc) }
}
