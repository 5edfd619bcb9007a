package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/anchor"
	"repro/internal/harness"
	"repro/internal/staticcheck"
	"repro/internal/workloads"
)

// finding is one verification violation in machine-readable form; the
// -json output of the verify modes is a stable-sorted array of these, so
// CI can diff artifacts across runs.
type finding struct {
	Bench string   `json:"bench"`
	Check string   `json:"check"`
	AB    int      `json:"ab,omitempty"`
	Site  uint32   `json:"site,omitempty"`
	Msg   string   `json:"msg"`
	Path  []string `json:"path,omitempty"`
}

// findingsOf converts a benchmark's violations to findings.
func findingsOf(bench string, vs []staticcheck.Violation) []finding {
	out := make([]finding, 0, len(vs))
	for _, v := range vs {
		out = append(out, finding{Bench: bench, Check: v.Check, AB: v.AB, Site: v.Site, Msg: v.Msg, Path: v.Path})
	}
	return out
}

// emitFindingsJSON prints the machine-readable verification report:
// mode, pass/fail, and the findings sorted by (bench, check, ab, site,
// msg) so output is byte-stable for identical inputs.
func emitFindingsJSON(mode string, fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.AB != b.AB {
			return a.AB < b.AB
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Msg < b.Msg
	})
	if fs == nil {
		fs = []finding{}
	}
	rep := struct {
		Tool     string    `json:"tool"`
		Mode     string    `json:"mode"`
		OK       bool      `json:"ok"`
		Findings []finding `json:"findings"`
	}{Tool: "staggersim", Mode: mode, OK: len(fs) == 0, Findings: fs}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "staggersim:", err)
		os.Exit(1)
	}
}

// parseSeeds parses the -conflict-seeds list.
func parseSeeds(list string) []int64 {
	var out []int64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "staggersim: bad -conflict-seeds entry %q: %v\n", f, err)
			os.Exit(2)
		}
		out = append(out, s)
	}
	return out
}

// runVerifyConflicts is the -verify-conflicts phase: for every selected
// benchmark it builds the static may-conflict matrix, proves lock
// sufficiency (every may-conflicting block pair has an armable advisory
// lock on all paths) and lock precision (no ALP serializes a provably
// read-only class, modulo the workload's waiver table), then
// cross-validates the matrix dynamically — instrumented runs across the
// -conflict-seeds list must observe only conflicting site pairs the
// matrix contains.
func runVerifyConflicts(base harness.RunConfig, seedList string, asJSON bool) {
	seeds := parseSeeds(seedList)
	var all []finding
	for _, name := range benches(base.Benchmark) {
		w, err := workloads.Get(name)
		if err != nil {
			die(2, err)
		}
		opts := anchor.DefaultOptions()
		opts.Naive = base.Naive
		comp := anchor.Compile(w.Mod, opts)
		mc, viols := staticcheck.VerifyConflicts(comp, workloads.ConflictWaivers(name))

		// Dynamic cross-validation: aggregate the conflicting-pair
		// histograms of one short run per seed — enough operations to
		// generate real contention in every block; the full benchmark
		// default would only repeat pairs — and check containment once
		// over the deduplicated union.
		pairSet := make(map[staticcheck.DynPair]bool)
		rc := verifyCell(base, name, 400)
		for _, seed := range seeds {
			rc.Seed = seed
			res, err := harness.Run(rc)
			if err != nil {
				die(1, err)
			}
			for p := range res.ConfPairs {
				pairSet[staticcheck.DynPair{VictimAB: p.VictimAB, VictimSite: p.VictimSite,
					KillerAB: p.KillerAB, KillerSite: p.KillerSite}] = true
			}
		}
		pairs := make([]staticcheck.DynPair, 0, len(pairSet))
		for p := range pairSet {
			pairs = append(pairs, p)
		}
		viols = append(viols, staticcheck.CheckConflictPairs(mc, pairs)...)

		if asJSON {
			all = append(all, findingsOf(name, viols)...)
			continue
		}
		if len(viols) == 0 {
			mayPairs := countMayConflictPairs(mc, w)
			fmt.Printf("verify-conflicts %-10s OK: sufficiency, precision, containment (%d classes, %d may-conflict block pairs, %d dynamic pairs over %d seeds)\n",
				name, len(mc.Classes()), mayPairs, len(pairs), len(seeds))
			continue
		}
		for _, v := range viols {
			all = append(all, findingsOf(name, []staticcheck.Violation{v})...)
			fmt.Printf("verify-conflicts %s: %s\n", name, v)
		}
	}
	if asJSON {
		emitFindingsJSON("verify-conflicts", all)
		if len(all) > 0 {
			os.Exit(1)
		}
		return
	}
	if len(all) > 0 {
		fmt.Printf("verify-conflicts: %d violation(s)\n", len(all))
		os.Exit(1)
	}
}

// countMayConflictPairs counts unordered atomic-block pairs (including
// self-pairs: two threads in the same block) the matrix marks as
// possibly conflicting.
func countMayConflictPairs(mc *staticcheck.MayConflict, w *workloads.Workload) int {
	ids := make([]int, 0, len(w.Mod.Atomics))
	for _, ab := range w.Mod.Atomics {
		ids = append(ids, ab.ID)
	}
	sort.Ints(ids)
	n := 0
	for i, a := range ids {
		for _, b := range ids[i:] {
			if mc.MayConflictPair(a, b) {
				n++
			}
		}
	}
	return n
}
