package equivalence

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/observables.golden (a deliberate act: the simulation changed)")

const goldenFile = "testdata/observables.golden"

// suiteSeeds are the three workload seeds every cell is swept over.
var suiteSeeds = []int64{1, 42, 1337}

// suiteOps keeps each cell small enough that the full 10 workloads × 3
// seeds × 5 variants sweep stays in test budget; contention still happens
// because the thread count does not shrink with the op count.
func suiteOps(bench string) int {
	switch bench {
	case "memcached":
		return 0 // queue-driven: use the workload default
	case "labyrinth":
		return 16
	case "genome", "ssca2":
		return 96
	default:
		return 120
	}
}

const suiteThreads = 4

// golden returns the committed corpus lines keyed by cell name.
func golden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		if *update {
			return nil
		}
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, _, _ := strings.Cut(l, " ")
		want[name] = l
	}
	return want
}

// TestEngineEquivalenceSuite pins every workload × seed × variant cell
// to its line in observables.golden: the hashes of its trace, metrics
// report JSON, statistics and final memory, and its oracle and
// verification verdicts. An HTM-mode cell must also produce its line
// under the second spelling of its schedule (see the package doc): an
// empty replay for the default order, a replay of its recorded decisions
// for PCT. In -short mode one seed is swept.
func TestEngineEquivalenceSuite(t *testing.T) {
	seeds := suiteSeeds
	if testing.Short() {
		if *update {
			t.Fatal("-update needs the full run (no -short)")
		}
		seeds = suiteSeeds[:1]
	}
	want := golden(t)
	var lines []string
	for _, bench := range workloads.Names() {
		for _, seed := range seeds {
			for _, v := range Variants() {
				name := fmt.Sprintf("%s/seed%d/%s", bench, seed, v.Name)
				t.Run(name, func(t *testing.T) {
					rc := Cell(bench, seed, suiteThreads, suiteOps(bench), v)
					o, second, err := spellTwice(rc)
					if err != nil {
						t.Fatal(err)
					}
					line := o.Line(name)
					lines = append(lines, line)
					if !*update && line != want[name] {
						t.Fatalf("observables differ from %s\n got: %s\nwant: %s", goldenFile, line, want[name])
					}
					if second != nil && second.Line(name) != line {
						t.Fatalf("second spelling of the schedule differs\n got: %s\nwant: %s", second.Line(name), line)
					}
				})
			}
		}
	}
	if *update {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// spellTwice runs rc and, for an HTM-mode cell, its schedule's second
// spelling: a recorded scheduled run and its replay, or the default order
// and the same cell under an empty replay. second is nil for the
// staggered family.
func spellTwice(rc harness.RunConfig) (o, second *Observables, err error) {
	switch {
	case rc.Mode != stagger.ModeHTM:
		o, err = Run(rc)
		return o, nil, err
	case rc.Sched != "":
		return RecordReplay(rc)
	}
	if o, err = Run(rc); err != nil {
		return nil, nil, err
	}
	rc.ReplayPicks = []uint32{}
	second, err = Run(rc)
	return o, second, err
}
