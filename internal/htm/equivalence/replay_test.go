package equivalence

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/harness"
	"repro/internal/htm"
)

// TestReplayDeterminism is the record/replay regression: an adversarial
// schedule is recorded, recorded again, and replayed from the first
// recording's decisions, and all three runs must agree byte for byte in
// trace and statistics. Any drift in the engine's decision points — the
// kind that would silently break `staggersim -verify-conflicts` sweeps or
// archived schedule files — fails here instead of in a campaign.
func TestReplayDeterminism(t *testing.T) {
	for _, strategy := range []string{"random", "pct:3"} {
		for _, bench := range []string{"list-hi", "kmeans", "intruder"} {
			t.Run(fmt.Sprintf("%s/%s", strategy, bench), func(t *testing.T) {
				rec := harness.RunConfig{
					Benchmark: bench,
					Threads:   suiteThreads,
					Seed:      42,
					TotalOps:  suiteOps(bench),
					TraceN:    -1,
					Sched:     strategy,
					SchedSeed: 7,
					Record:    true,
				}
				recorded, err := harness.Run(rec)
				if err != nil {
					t.Fatal(err)
				}
				if len(recorded.SchedPicks) == 0 {
					t.Fatalf("recorded run produced no scheduler decisions")
				}
				again, err := harness.Run(rec)
				if err != nil {
					t.Fatal(err)
				}

				replay := rec
				replay.Record = false
				replay.ReplayPicks = recorded.SchedPicks
				replayed, err := harness.Run(replay)
				if err != nil {
					t.Fatal(err)
				}

				recTrace := htm.FormatTrace(recorded.Trace)
				for _, run := range []struct {
					name string
					res  *harness.Result
				}{{"second recording", again}, {"replay", replayed}} {
					if htm.FormatTrace(run.res.Trace) != recTrace {
						t.Fatalf("%s diverges from the recording's trace", run.name)
					}
					if !reflect.DeepEqual(run.res.Stats, recorded.Stats) {
						t.Fatalf("%s statistics diverge from the recording's", run.name)
					}
				}
			})
		}
	}
}

// TestRecordedPicksEngineIndependent pins the recorded decision sequence
// itself: a second recording of the same run, and a recording taken while
// replaying the first, must yield the same pick sequence, decision for
// decision — whichever scheduler drives the run, the engine consults it at
// identical decision points.
func TestRecordedPicksEngineIndependent(t *testing.T) {
	rec := harness.RunConfig{
		Benchmark: "list-hi",
		Threads:   suiteThreads,
		Seed:      42,
		TotalOps:  suiteOps("list-hi"),
		Sched:     "random",
		SchedSeed: 11,
		Record:    true,
	}
	first, err := harness.Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := harness.Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	replay := rec
	replay.ReplayPicks = first.SchedPicks
	rerecorded, err := harness.Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.SchedPicks) == 0 {
		t.Fatal("recorded run produced no scheduler decisions")
	}
	if !slices.Equal(second.SchedPicks, first.SchedPicks) || !slices.Equal(rerecorded.SchedPicks, first.SchedPicks) {
		t.Fatalf("pick sequences diverge: recording %d picks, second recording %d, replay %d",
			len(first.SchedPicks), len(second.SchedPicks), len(rerecorded.SchedPicks))
	}
}
