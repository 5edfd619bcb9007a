package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayRestoresBackend records a PCT run under a non-default backend
// to a trace file and replays it with nothing but -sched replay:<file>:
// the trace header must carry the backend (and the limited backend's
// capacity) so that the replay runs the same system and prints the same
// statistics. A header without them replays against the default backend.
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
	for name, system := range map[string][]string{
		"occ":     {"-backend", "occ"},
		"limited": {"-backend", "limited", "-capacity", "8"},
	} {
		trace := filepath.Join(dir, name+".trace")
		recorded := stats(append(system, "-bench", "vacation", "-threads", "4", "-ops", "200",
			"-sched", "pct:3", "-sched-seed", "7", "-oracle", "-record", trace)...)
		if _, err := os.Stat(trace); err != nil {
			t.Fatal(err)
		}
		replayed := stats("-sched", "replay:"+trace, "-oracle")
		if !strings.Contains(recorded, "backend "+name) || !strings.Contains(recorded, "oracle      OK") {
			t.Fatalf("%s: recorded run did not report its backend and a clean oracle:\n%s", name, recorded)
		}
		if replayed != recorded {
			t.Fatalf("%s: replay with only -sched replay:<file> diverged from the recorded run\nrecorded:\n%s\nreplayed:\n%s",
				name, recorded, replayed)
		}
	}
}
