package main

import (
	"fmt"
	"os"

	"repro/internal/anchor"
	"repro/internal/harness"
	"repro/internal/staticcheck"
	"repro/internal/workloads"
)

// verifyCell is the short run a -verify mode executes for one benchmark:
// the command line's cell — system included — at ops operations unless
// -ops says otherwise.
func verifyCell(base harness.RunConfig, name string, ops int) harness.RunConfig {
	base.Benchmark = name
	if base.TotalOps == 0 {
		base.TotalOps = ops
	}
	return base
}

// runVerifyStatic is the -verify-static phase: for every selected
// benchmark it proves the three IR-level invariants (anchor-scope
// well-formedness, global lock-acquisition order, access coverage) on
// the compiled anchor tables, then executes a short instrumented run
// with a site recorder installed and checks static/dynamic conformance
// — every dynamically attributed site must exist in the IR with the
// declared access kind and DSA coverage. Any violation prints with
// block/site identity (and a minimal counterexample path for scope
// violations) and the process exits nonzero.
func runVerifyStatic(base harness.RunConfig, asJSON bool) {
	var all []finding
	for _, name := range benches(base.Benchmark) {
		w, err := workloads.Get(name)
		if err != nil {
			die(2, err)
		}
		opts := anchor.DefaultOptions()
		opts.Naive = base.Naive
		comp := anchor.Compile(w.Mod, opts)
		static := staticcheck.Verify(comp)

		// A slice of the benchmark is enough to exercise every atomic
		// block; the full default would just repeat sites.
		rc := verifyCell(base, name, 200)
		rec := staticcheck.NewConformance()
		rc.SiteRecorder = rec
		res, err := harness.Run(rc)
		if err != nil {
			die(1, err)
		}
		dynamic := rec.Check(res.Compiled)

		viols := append(static, dynamic...)
		if asJSON {
			all = append(all, findingsOf(name, viols)...)
			continue
		}
		if len(viols) == 0 {
			fmt.Printf("verify-static %-10s OK: anchor-scope, lock-order, coverage, conformance (%d blocks, %d dynamic site obs)\n",
				name, len(w.Mod.Atomics), rec.Observations())
			continue
		}
		for _, v := range viols {
			all = append(all, findingsOf(name, []staticcheck.Violation{v})...)
			fmt.Printf("verify-static %s: %s\n", name, v)
		}
	}
	if asJSON {
		emitFindingsJSON("verify-static", all)
		if len(all) > 0 {
			os.Exit(1)
		}
		return
	}
	if len(all) > 0 {
		fmt.Printf("verify-static: %d violation(s)\n", len(all))
		os.Exit(1)
	}
}
