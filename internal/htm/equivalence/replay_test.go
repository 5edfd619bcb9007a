package equivalence

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/htm"
)

// TestReplayDeterminism is the record/replay regression of ISSUE 9: an
// adversarial schedule is recorded on the cooperative engine, replayed
// on the cooperative engine, and replayed again on the reference engine.
// All three runs must agree byte for byte. The cooperative engine's
// decision points (start, every losing sync, every finish) must line up
// exactly with the reference engine's for this to hold, so any drift in
// the step order — the kind that would silently break `staggersim
// -verify-conflicts` sweeps or archived schedule files — fails here, in
// CI, instead of in a campaign.
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

				replay := rec
				replay.Record = false
				replay.ReplayPicks = recorded.SchedPicks
				onCoop, err := harness.Run(replay)
				if err != nil {
					t.Fatal(err)
				}

				refReplay := replay
				mc := htm.DefaultConfig()
				mc.RefEngine = true
				refReplay.Machine = &mc
				onRef, err := harness.Run(refReplay)
				if err != nil {
					t.Fatal(err)
				}

				recTrace := htm.FormatTrace(recorded.Trace)
				if got := htm.FormatTrace(onCoop.Trace); got != recTrace {
					t.Fatalf("replay on cooperative engine diverges from its own recording")
				}
				if got := htm.FormatTrace(onRef.Trace); got != recTrace {
					t.Fatalf("replay on reference engine diverges from cooperative recording")
				}
				// The reference engine keeps no scheduling counts of its
				// own; the cooperative replay must repeat the recording's.
				onRef.Stats.Engine = recorded.Stats.Engine
				if !reflect.DeepEqual(onCoop.Stats, recorded.Stats) ||
					!reflect.DeepEqual(onRef.Stats, recorded.Stats) {
					t.Fatalf("replayed statistics diverge from the recording")
				}
				if d := onRef.Stats.Makespan; d != recorded.Stats.Makespan {
					t.Fatalf("makespan drift: recorded %d, ref replay %d", recorded.Stats.Makespan, d)
				}
			})
		}
	}
}

// TestRecordedPicksEngineIndependent pins the recorded decision sequence
// itself: recording the same adversarial run on both engines must yield
// the same pick sequence, event for event — the strongest form of "the
// two engines consult the scheduler at identical decision points".
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
	onCoop, err := harness.Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	refRec := rec
	mc := htm.DefaultConfig()
	mc.RefEngine = true
	refRec.Machine = &mc
	onRef, err := harness.Run(refRec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(picksBytes(onCoop.SchedPicks), picksBytes(onRef.SchedPicks)) {
		t.Fatalf("recorded pick sequences diverge: coop %d picks, ref %d picks",
			len(onCoop.SchedPicks), len(onRef.SchedPicks))
	}
}

func picksBytes(picks []uint32) []byte {
	out := make([]byte, 0, len(picks)*4)
	for _, p := range picks {
		out = append(out, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
	}
	return out
}
