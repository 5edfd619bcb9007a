package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayRestoresBackend records a PCT run under a non-default cell
// setting to a trace file and replays it with nothing but -sched
// replay:<file>: the trace header must carry the whole cell — the
// backend and the limited backend's capacity, lazy detection, naive
// instrumentation, the fault rate — so that the replay runs the same
// simulation and prints the same statistics. A header that drops any of
// them replays a different run.
func TestReplayRestoresBackend(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "staggersim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building staggersim: %v\n%s", err, out)
	}
	// stats is the run's printed summary without the line -record adds.
	stats := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("staggersim %v: %v\n%s", args, err, out)
		}
		var keep []string
		for _, l := range strings.Split(string(out), "\n") {
			if !strings.HasPrefix(l, "recorded ") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	vacation := []string{"-bench", "vacation", "-threads", "4", "-ops", "200", "-sched", "pct:3", "-sched-seed", "7"}
	listHi := []string{"-bench", "list-hi", "-threads", "4", "-ops", "400", "-sched", "random", "-sched-seed", "5"}
	for _, row := range []struct {
		name  string
		args  []string
		shows string // a line the recorded run prints
	}{
		{"occ", append([]string{"-backend", "occ"}, vacation...), "backend occ"},
		{"limited", append([]string{"-backend", "limited", "-capacity", "8"}, vacation...), "backend limited"},
		{"lazy", append([]string{"-lazy"}, listHi...), "backend staggered"},
		{"naive", append([]string{"-naive"}, listHi...), "backend staggered"},
		{"chaos", append([]string{"-chaos", "0.01"}, listHi...), "chaos       injected"},
	} {
		name := row.name
		trace := filepath.Join(dir, name+".trace")
		recorded := stats(append(row.args, "-oracle", "-record", trace)...)
		if _, err := os.Stat(trace); err != nil {
			t.Fatal(err)
		}
		replayed := stats("-sched", "replay:"+trace)
		if !strings.Contains(recorded, row.shows) || !strings.Contains(recorded, "oracle      OK") {
			t.Fatalf("%s: recorded run did not print %q and a clean oracle:\n%s", name, row.shows, recorded)
		}
		if replayed != recorded {
			t.Fatalf("%s: replay with only -sched replay:<file> diverged from the recorded run\nrecorded:\n%s\nreplayed:\n%s",
				name, recorded, replayed)
		}
	}
}
