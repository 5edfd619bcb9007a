package sched

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		err  bool
	}{
		{in: "random", want: Spec{Kind: "random", Window: DefaultWindow}},
		{in: "pct:3", want: Spec{Kind: "pct", Depth: 3, Window: DefaultWindow}},
		{in: "pct:1@0", want: Spec{Kind: "pct", Depth: 1, Window: 0}},
		{in: "random@8192", want: Spec{Kind: "random", Window: 8192}},
		{in: "replay:a/b.trace", want: Spec{Kind: "replay", File: "a/b.trace", Window: DefaultWindow}},
		{in: "pct:0", err: true},
		{in: "pct:x", err: true},
		{in: "replay:", err: true},
		{in: "fifo", err: true},
		{in: "random@-1", err: true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.err {
			if err == nil {
				t.Errorf("Parse(%q): want error, got %+v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		back, err := Parse(got.String())
		if err != nil || back != got {
			t.Errorf("Parse(String(%q)) = %+v, %v; not a round trip", c.in, back, err)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, b := NewRandom(7, DefaultWindow), NewRandom(7, DefaultWindow)
	runnable := []int{0, 1, 2, 3}
	times := []uint64{5, 5, 9, 2}
	for i := 0; i < 100; i++ {
		if x, y := a.Pick(runnable, times), b.Pick(runnable, times); x != y {
			t.Fatalf("same-seed Random diverged at call %d: %d vs %d", i, x, y)
		}
	}
}

func TestPCTPrioritiesDistinctAndDemotion(t *testing.T) {
	const cores, depth = 8, 4
	p := NewPCT(11, cores, depth, DefaultWindow)
	seen := make(map[int]bool)
	for _, pr := range p.prio {
		if pr < depth || pr >= depth+cores {
			t.Fatalf("initial priority %d outside [d, d+cores)", pr)
		}
		if seen[pr] {
			t.Fatalf("duplicate priority %d", pr)
		}
		seen[pr] = true
	}
	if len(p.change) != depth-1 {
		t.Fatalf("got %d change points, want %d", len(p.change), depth-1)
	}
	// Drive past every change point; priorities must stay distinct and the
	// demoted ones must be below all initial priorities.
	runnable := []int{0, 1, 2, 3, 4, 5, 6, 7}
	times := make([]uint64, cores)
	for i := uint64(0); i <= PCTHorizon; i++ {
		p.Pick(runnable, times)
	}
	if len(p.change) != 0 {
		t.Fatalf("%d change points unconsumed", len(p.change))
	}
	seen = make(map[int]bool)
	below := 0
	for _, pr := range p.prio {
		if seen[pr] {
			t.Fatalf("duplicate priority %d after demotions", pr)
		}
		seen[pr] = true
		if pr < depth {
			below++
		}
	}
	if below != depth-1 {
		t.Fatalf("%d demoted cores, want %d", below, depth-1)
	}
}

func TestPCTPicksHighestPriority(t *testing.T) {
	p := NewPCT(3, 4, 1, DefaultWindow) // depth 1: no change points
	runnable := []int{1, 3}
	times := []uint64{0, 0}
	want := 0
	if p.prio[3] > p.prio[1] {
		want = 1
	}
	if got := p.Pick(runnable, times); got != want {
		t.Fatalf("Pick = %d, want %d (prio[1]=%d prio[3]=%d)", got, want, p.prio[1], p.prio[3])
	}
}

func TestReplayConsumesThenFallsBack(t *testing.T) {
	r := NewReplay([]uint32{2, 0}, DefaultWindow)
	runnable := []int{0, 1, 2}
	times := []uint64{9, 4, 7}
	if got := r.Pick(runnable, times); got != 2 {
		t.Fatalf("first pick = %d, want recorded 2", got)
	}
	if got := r.Pick(runnable, times); got != 0 {
		t.Fatalf("second pick = %d, want recorded 0", got)
	}
	// Exhausted: minimum-time fallback picks index 1 (time 4).
	if got := r.Pick(runnable, times); got != 1 {
		t.Fatalf("fallback pick = %d, want 1", got)
	}
	if r.Consumed() != 2 {
		t.Fatalf("Consumed = %d, want 2", r.Consumed())
	}
}

func TestRecorderNormalizesAndReplays(t *testing.T) {
	inner := NewRandom(42, DefaultWindow)
	rec := NewRecorder(inner)
	runnable := []int{0, 1, 2, 3, 4}
	times := make([]uint64, 5)
	var live []int
	for i := 0; i < 50; i++ {
		live = append(live[:0:0], runnable[:2+i%4]...)
		rec.Pick(live, times[:len(live)])
	}
	rep := NewReplay(rec.Picks(), DefaultWindow)
	inner2 := NewRandom(42, DefaultWindow)
	for i := 0; i < 50; i++ {
		live = append(live[:0:0], runnable[:2+i%4]...)
		want := inner2.Pick(live, times[:len(live)])
		if got := rep.Pick(live, times[:len(live)]); got != want {
			t.Fatalf("replayed pick %d = %d, want %d", i, got, want)
		}
	}
}

// TestRecorderResetStartsANewSchedule: a recorder reused through Reset
// records the second schedule as a new recorder would, in the buffer of
// the first.
func TestRecorderResetStartsANewSchedule(t *testing.T) {
	runnable, times := []int{0, 1, 2, 3}, make([]uint64, 4)
	record := func(rec *Recorder, n int) []uint32 {
		for i := 0; i < n; i++ {
			rec.Pick(runnable, times)
		}
		return rec.Picks()
	}
	rec := NewRecorder(NewRandom(1, DefaultWindow))
	first := record(rec, 40)
	rec.Reset(NewRandom(2, DefaultWindow))
	if len(rec.Picks()) != 0 {
		t.Fatalf("%d picks left after Reset", len(rec.Picks()))
	}
	second := record(rec, 30)
	if want := record(NewRecorder(NewRandom(2, DefaultWindow)), 30); !slices.Equal(second, want) {
		t.Fatalf("picks after Reset %v, a new recorder's %v", second, want)
	}
	if &first[0] != &second[0] {
		t.Fatal("Reset did not keep the buffer")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := &Trace{
		Version:  TraceVersion,
		Spec:     "pct:3",
		Seed:     99,
		Bench:    "list",
		Mode:     "staggered",
		Backend:  "limited",
		Capacity: 8,
		Threads:  8,
		WlSeed:   1,
		Window:   DefaultWindow,
		Picks:    []uint32{0, 1, 2, 3, 300, 0, 7, 1 << 20},
	}
	back, err := Decode(tr.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, tr)
	}

	// A header written before backends existed names no backend; it must
	// still load, leaving the system to the mode.
	old, err := Decode([]byte(`{"version":1,"spec":"pct:3","seed":99,"bench":"list","mode":"staggered","threads":8,"wl_seed":1,"window":64}` + "\nAAE=\n"))
	if err != nil {
		t.Fatalf("Decode of a pre-backend header: %v", err)
	}
	if old.Backend != "" || old.Capacity != 0 || old.Mode != "staggered" || len(old.Picks) != 2 {
		t.Fatalf("pre-backend header decoded to %+v", old)
	}

	path := filepath.Join(t.TempDir(), "x.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	back, err = ReadTraceFile(path)
	if err != nil {
		t.Fatalf("ReadTraceFile: %v", err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("file round trip mismatch")
	}
}

func TestTraceEmptyPicks(t *testing.T) {
	tr := &Trace{Version: TraceVersion, Spec: "random", Bench: "queue", Threads: 2, Window: 1}
	back, err := Decode(tr.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(back.Picks) != 0 {
		t.Fatalf("got %d picks, want 0", len(back.Picks))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "{}\n!!!notbase64!!!\n", "notjson\nAA==\n"} {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode(%q): want error", in)
		}
	}
	// Wrong version.
	if _, err := Decode([]byte(`{"version":999}` + "\n\n")); err == nil {
		t.Errorf("Decode with version 999: want error")
	}
}

// TestMinimizePrefix checks that a failure depending only on an early
// decision minimizes to (near) nothing beyond it.
func TestMinimizePrefix(t *testing.T) {
	picks := make([]uint32, 400)
	picks[5] = 7 // the single decision that matters
	fail := func(p []uint32) bool { return len(p) > 5 && p[5] == 7 }
	got := Minimize(picks, fail, 10_000)
	if !fail(got) {
		t.Fatalf("minimized sequence no longer fails")
	}
	if len(got) > 10 {
		t.Fatalf("minimized to %d decisions, want <= 10", len(got))
	}
}

// TestMinimizeSubsequence checks ddmin removes interior decisions the
// failure does not depend on.
func TestMinimizeSubsequence(t *testing.T) {
	// Failure: the subsequence must contain at least three 9s.
	picks := make([]uint32, 200)
	picks[10], picks[90], picks[170] = 9, 9, 9
	count := func(p []uint32) int {
		n := 0
		for _, v := range p {
			if v == 9 {
				n++
			}
		}
		return n
	}
	fail := func(p []uint32) bool { return count(p) >= 3 }
	got := Minimize(picks, fail, 10_000)
	if !fail(got) {
		t.Fatalf("minimized sequence no longer fails")
	}
	if len(got) > 20 {
		t.Fatalf("minimized to %d decisions, want <= 20", len(got))
	}
}

func TestMinimizeRespectsBudget(t *testing.T) {
	calls := 0
	fail := func(p []uint32) bool { calls++; return true }
	Minimize(make([]uint32, 1<<12), fail, 25)
	if calls > 25 {
		t.Fatalf("fail called %d times, budget 25", calls)
	}
}
