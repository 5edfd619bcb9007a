package anchor_test

import (
	"testing"

	"repro/internal/anchor"
	"repro/internal/workloads"
)

// TestUnifiedOnAllWorkloads holds the compiler pass's real output to the
// shape invariants in both instrumentation modes: on every benchmark,
// every reachable site has a unified row resolving to an anchor, and
// every follower's pioneer is an anchor on its node that dominates it.
func TestUnifiedOnAllWorkloads(t *testing.T) {
	for _, opts := range anchor.ShapeOptions {
		t.Run(anchor.ShapeName(opts), func(t *testing.T) {
			for _, name := range workloads.Names() {
				w, err := workloads.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				if _, rows := anchor.CheckUnified(t, anchor.Compile(w.Mod, opts)); rows == 0 {
					t.Fatalf("%s: no unified rows", name)
				}
			}
		})
	}
}
