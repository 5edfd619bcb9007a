// Package equivalence re-derives the engine corpus — the last 150 rows of
// internal/harness/testdata/fingerprints.golden, which TestFingerprints
// produces and compares — from outside package harness, through its
// public sweep runner. It has no code of its own, only this test.
package equivalence

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

const goldenFile = "../../harness/testdata/fingerprints.golden"

// variants, seeds and ops are TestFingerprints' corpusVariants,
// corpusSeeds and corpusOps. Both tests check the same committed rows,
// so a change to one copy fails whichever test still has the other.
var variants = []struct {
	name  string
	apply func(*harness.RunConfig)
}{
	{"plain", func(rc *harness.RunConfig) {
		rc.Mode = stagger.ModeHTM
	}},
	{"staggered", func(rc *harness.RunConfig) {
		rc.Mode = stagger.ModeStaggeredHW
	}},
	{"chaos-0.05", func(rc *harness.RunConfig) {
		rc.Mode = stagger.ModeStaggeredHW
		rc.ChaosRate = 0.05
		rc.Watchdog = harness.ChaosWatchdog
	}},
	{"chaos", func(rc *harness.RunConfig) {
		rc.Mode = stagger.ModeStaggeredHW
		rc.ChaosRate = 0.01
		rc.Watchdog = 500_000_000
	}},
	{"pct", func(rc *harness.RunConfig) {
		rc.Mode = stagger.ModeHTM
		rc.Sched = "pct:3"
		rc.SchedSeed = rc.Seed + 1
	}},
}

var seeds = []int64{1, 42, 1337}

func ops(bench string) int {
	switch bench {
	case "memcached":
		return 0
	case "labyrinth":
		return 16
	case "genome", "ssca2":
		return 96
	default:
		return 120
	}
}

// memoryField is a committed row's final-memory digest, which only
// package harness's own tests can reach.
var memoryField = regexp.MustCompile(` memory=[0-9a-f]{64}`)

// line is a corpus row without its memory digest.
func line(name string, res *harness.Result) (string, error) {
	metrics, err := json.MarshalIndent(obs.Snapshot(res), "", "  ")
	if err != nil {
		return "", err
	}
	stats, err := json.MarshalIndent(res.Stats, "", "  ")
	if err != nil {
		return "", err
	}
	oracle, verify := fmt.Sprintf("ok %d commits", res.OracleCommits), "ok"
	if res.OracleErr != nil {
		oracle = res.OracleErr.Error()
	}
	if res.VerifyErr != nil {
		verify = res.VerifyErr.Error()
	}
	return fmt.Sprintf("%s trace=%x metrics=%x stats=%x oracle=%q verify=%q",
		name, sha256.Sum256([]byte(htm.FormatTrace(res.Trace))), sha256.Sum256(metrics),
		sha256.Sum256(stats), oracle, verify), nil
}

// TestEngineEquivalenceSuite runs every corpus cell — each workload ×
// seed × variant at 4 threads, traced with extended events, under the
// serializability oracle — in one harness.Sweep at the default worker
// count, and holds each cell's trace, metrics report, statistics and
// verdicts to its committed row. TestFingerprints runs each cell on its
// own and also pins final memory and the second spelling of HTM-mode
// schedules; this test pins the same observables when traced, chaos-
// injected and PCT-scheduled cells share the sweep runner's workers,
// which TestDeterminismEquivalenceEveryWorkload's untraced cells do not
// reach. -short sweeps one seed.
func TestEngineEquivalenceSuite(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, _, _ := strings.Cut(l, " ")
		want[name] = memoryField.ReplaceAllString(l, "")
	}
	sweep := seeds
	if testing.Short() {
		sweep = seeds[:1]
	}
	var names []string
	var cfgs []harness.RunConfig
	for _, bench := range workloads.Names() {
		for _, seed := range sweep {
			for _, v := range variants {
				names = append(names, fmt.Sprintf("%s/seed%d/%s", bench, seed, v.name))
				rc := harness.RunConfig{Benchmark: bench, Threads: 4, Seed: seed, TotalOps: ops(bench),
					TraceN: -1, Oracle: true}
				v.apply(&rc)
				rc.Record = rc.Sched != ""
				cfgs = append(cfgs, rc)
			}
		}
	}
	// deliver keeps only each cell's row, not its full trace.
	lines := make([]string, len(cfgs))
	errs := make([]error, len(cfgs))
	if err := harness.Sweep(context.Background(), cfgs, 0, func(i int, o harness.RunOutcome) error {
		if errs[i] = o.Err; o.Err == nil {
			lines[i], errs[i] = line(names[i], o.Res)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if lines[i] != want[name] {
				t.Fatalf("sweep differs from %s (memory field aside)\n got: %s\nwant: %s", goldenFile, lines[i], want[name])
			}
		})
	}
}
