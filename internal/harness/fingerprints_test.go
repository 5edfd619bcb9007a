package harness

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.golden (a deliberate act: the simulation changed)")

const fingerprintFile = "testdata/fingerprints.golden"

// fingerprint is one cell's simulated outcome: what must not move when
// the code that builds and runs a cell is reorganised.
func fingerprint(t *testing.T, name string, rc RunConfig) string {
	t.Helper()
	res, err := Run(rc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("%s: verify: %v", name, res.VerifyErr)
	}
	s := &res.Stats
	var aborts []string
	for r := htm.AbortConflict; int(r) < htm.NumAbortReasons; r++ {
		aborts = append(aborts, fmt.Sprintf("%s=%d", r, s.Aborts[r]))
	}
	return fmt.Sprintf("%s: events=%d makespan=%d commits=%d aborts[%s] alp=%d",
		name, s.Loads+s.Stores+s.NTLoads+s.NTStores, s.Makespan, s.Commits,
		strings.Join(aborts, " "), res.Metrics.ALPVisits)
}

// exploreFingerprint is one campaign's outcome: the report's counts and
// a sha256 over every schedule's recorded picks and per-core statistics,
// in run order (explore's tap; the report itself carries neither).
func exploreFingerprint(t *testing.T, bench, bk, spec string) string {
	t.Helper()
	const threads, ops, runs = 4, 160, 8
	name := fmt.Sprintf("explore %s backend=%s t%d ops%d %s x%d", bench, bk, threads, ops, spec, runs)
	h := sha256.New()
	rep, err := explore(ExploreConfig{Benchmark: bench, Backend: bk, Threads: threads, Seed: 42,
		TotalOps: ops, Spec: spec, Runs: runs}, func(i int, res *Result) {
		fmt.Fprintf(h, "%d picks=%v stats=%+v\n", i, res.SchedPicks, res.Stats.PerCore)
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return fmt.Sprintf("%s: runs=%d commits=%d failures=%d sha256=%x",
		name, rep.Runs, rep.Commits, len(rep.Failures), h.Sum(nil))
}

// paperBytes is cmd/paper's whole default sequence, rendered in-process
// the way cmd/paper prints it.
func paperBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var b strings.Builder
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	t1, err := Table1(seed)
	must(err)
	fmt.Fprintln(&b, FormatTable1(t1))
	fmt.Fprintln(&b, Table2())
	t3, err := Table3(seed)
	must(err)
	fmt.Fprintln(&b, FormatTable3(t3))
	t4, err := Table4(seed)
	must(err)
	fmt.Fprintln(&b, FormatTable4(t4))
	f7, err := Figure7(seed)
	must(err)
	fmt.Fprintln(&b, FormatFigure7(f7))
	f8, err := Figure8(seed)
	must(err)
	fmt.Fprintln(&b, FormatFigure8(f8))
	cs, err := Claims(seed)
	must(err)
	fmt.Fprintln(&b, FormatClaims(cs))
	return []byte(b.String())
}

// TestFingerprints pins the simulated output of every way a cell can be
// spelled — each Mode with no backend named, each registered backend —
// on every workload, plus the paper's 16-thread matrix, the one-thread
// cells whose event counts the retired host-timing gate pinned, and the
// bytes of cmd/paper's whole sequence, and after that the scheduler-
// driven rows: an oracle-checked PCT campaign per workload on the
// staggered and occ backends (random too on list-hi and memcached), and
// last the lazy-detection cells. A
// refactor of the run path, the memo, the sweep runner or what a campaign
// keeps between its schedules must leave this file untouched; -update
// is for changes to the simulation itself.
func TestFingerprints(t *testing.T) {
	modes := []stagger.Mode{stagger.ModeHTM, stagger.ModeAddrOnly, stagger.ModeStaggeredSW, stagger.ModeStaggeredHW}
	var lines []string
	for _, wl := range workloads.Names() {
		for _, m := range modes {
			lines = append(lines, fingerprint(t, fmt.Sprintf("%s mode=%s t4 ops400", wl, m),
				RunConfig{Benchmark: wl, Mode: m, Threads: 4, Seed: 42, TotalOps: 400}))
		}
		for _, bk := range backend.Names() {
			lines = append(lines, fingerprint(t, fmt.Sprintf("%s backend=%s t4 ops400", wl, bk),
				RunConfig{Benchmark: wl, Backend: bk, Threads: 4, Seed: 42, TotalOps: 400}))
		}
	}
	for _, wl := range workloads.Names() {
		for _, m := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
			lines = append(lines, fingerprint(t, fmt.Sprintf("%s mode=%s t16", wl, m),
				RunConfig{Benchmark: wl, Mode: m, Threads: PaperThreads, Seed: 42}))
		}
	}
	// The retired timing gate's quick matrix; its t4 cells are above.
	for _, wl := range []string{"list-hi", "kmeans"} {
		for _, m := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
			lines = append(lines, fingerprint(t, fmt.Sprintf("%s mode=%s t1 ops400", wl, m),
				RunConfig{Benchmark: wl, Mode: m, Threads: 1, Seed: 42, TotalOps: 400}))
		}
	}

	const paperPrefix = "cmd/paper seed=42 sha256="
	old, readErr := os.ReadFile(fingerprintFile)
	if testing.Short() {
		// The paper sequence is ~5 s of 16-thread cells: keep the
		// committed line and compare everything else.
		if *updateFingerprints {
			t.Fatal("-update needs the full run (no -short): the cmd/paper digest is part of the file")
		}
		for _, l := range strings.Split(string(old), "\n") {
			if strings.HasPrefix(l, paperPrefix) {
				lines = append(lines, l)
			}
		}
	} else {
		ClearCache()
		defer ClearCache()
		lines = append(lines, fmt.Sprintf("%s%x", paperPrefix, sha256.Sum256(paperBytes(t, 42))))
	}
	for _, wl := range workloads.Names() {
		for _, bk := range []string{"staggered", "occ"} {
			lines = append(lines, exploreFingerprint(t, wl, bk, "pct:3"))
		}
	}
	for _, wl := range []string{"list-hi", "memcached"} {
		for _, bk := range []string{"staggered", "occ"} {
			lines = append(lines, exploreFingerprint(t, wl, bk, "random"))
		}
	}
	// Lazy (committer-wins) conflict detection, which the spellings above
	// never select: a list and a STAMP workload at both thread counts.
	for _, wl := range []string{"list-hi", "genome"} {
		for _, m := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
			lines = append(lines,
				fingerprint(t, fmt.Sprintf("%s mode=%s lazy t4 ops400", wl, m),
					RunConfig{Benchmark: wl, Mode: m, Threads: 4, Seed: 42, TotalOps: 400, Lazy: true}),
				fingerprint(t, fmt.Sprintf("%s mode=%s lazy t16", wl, m),
					RunConfig{Benchmark: wl, Mode: m, Threads: PaperThreads, Seed: 42, Lazy: true}))
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateFingerprints {
		if err := os.WriteFile(fingerprintFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if readErr != nil {
		t.Fatalf("%v (run with -update to create it)", readErr)
	}
	if got != string(old) {
		gl, ol := strings.Split(got, "\n"), strings.Split(string(old), "\n")
		for i := 0; i < len(gl) && i < len(ol); i++ {
			if gl[i] != ol[i] {
				t.Fatalf("%s line %d differs\n got: %s\nwant: %s", fingerprintFile, i+1, gl[i], ol[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", fingerprintFile, len(gl), len(ol))
	}
}
