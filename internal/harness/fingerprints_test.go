package harness_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.golden (a deliberate act: the simulation changed)")

const fingerprintFile = "testdata/fingerprints.golden"

// fingerprint is one cell's simulated outcome: what must not move when
// the code that builds and runs a cell is reorganised.
func fingerprint(t *testing.T, name string, rc harness.RunConfig) string {
	t.Helper()
	res, err := harness.Run(rc)
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
func exploreFingerprint(t *testing.T, name string, ec harness.ExploreConfig) string {
	t.Helper()
	h := sha256.New()
	rep, err := harness.ExploreObserved(ec, func(i int, res *harness.Result) {
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
	var b bytes.Buffer
	if err := harness.WritePaper(&b, seed, harness.DefaultRun); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// corpusVariants is the configuration axis of the corpus rows: baseline
// HTM, the full staggered system, light and heavy deterministic fault
// injection, and an adversarial PCT schedule. Record/replay under the
// random scheduler is TestReplayFidelity's.
var corpusVariants = []struct {
	name  string
	apply func(*harness.RunConfig)
}{
	{"plain", func(rc *harness.RunConfig) {
		rc.Mode = stagger.ModeHTM
	}},
	{"staggered", func(rc *harness.RunConfig) {
		rc.Mode = stagger.ModeStaggeredHW
	}},
	// The chaos campaign's highest default rate under its watchdog.
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

// corpusSeeds are the workload seeds every corpus cell is swept over;
// -short sweeps the first.
var corpusSeeds = []int64{1, 42, 1337}

// corpusOps keeps each corpus cell small; contention still happens
// because the thread count does not shrink with the op count.
func corpusOps(bench string) int {
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

// corpusCell is the cell of one (benchmark, seed, variant) triple: full
// tracing on (extended events included, so the advisory-lock and
// irrevocable annotations are compared too) and the serializability
// oracle installed.
func corpusCell(bench string, seed int64, threads, ops, variant int) harness.RunConfig {
	rc := harness.RunConfig{Benchmark: bench, Threads: threads, Seed: seed, TotalOps: ops,
		TraceN: -1, Oracle: true}
	corpusVariants[variant].apply(&rc)
	return rc
}

// corpusLine runs rc and returns its row — the sha256 of the formatted
// trace, of the obs metrics report JSON, of the statistics JSON (the
// host-side Engine counts are not part of it) and of final memory, and
// the oracle and verification verdicts — with the run's Result.
func corpusLine(t *testing.T, name string, rc harness.RunConfig) (string, *harness.Result) {
	t.Helper()
	run, memory := harness.NewPreparedRunner()
	res, err := run(rc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	metrics, err := json.MarshalIndent(obs.Snapshot(res), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := json.MarshalIndent(res.Stats, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	oracle, verify := fmt.Sprintf("ok %d commits", res.OracleCommits), "ok"
	if res.OracleErr != nil {
		oracle = res.OracleErr.Error()
	}
	if res.VerifyErr != nil {
		verify = res.VerifyErr.Error()
	}
	return fmt.Sprintf("%s trace=%x metrics=%x stats=%x memory=%x oracle=%q verify=%q",
		name, sha256.Sum256([]byte(htm.FormatTrace(res.Trace))), sha256.Sum256(metrics),
		sha256.Sum256(stats), memoryDigest(memory()), oracle, verify), res
}

// memoryDigest hashes every nonzero word of m, in address order: Diff
// against an empty memory lists exactly those addresses, ascending.
func memoryDigest(m *mem.Memory) [32]byte {
	h := sha256.New()
	var buf [16]byte
	for _, a := range m.Diff(mem.New(), math.MaxInt) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(a))
		binary.LittleEndian.PutUint64(buf[8:], m.Load(a))
		h.Write(buf[:])
	}
	return [32]byte(h.Sum(nil))
}

// corpusRow is a corpus cell's row. An HTM-mode cell must produce it a
// second time with its schedule spelled the other way: the default order
// as an empty replay, which decides every event through the engine's
// candidate scan and an exhausted replay's smallest-clock pick instead of
// the inlined keep test, and a PCT schedule as the replay of its
// recorded decisions. Staggered-family cells have no second spelling —
// with a scheduler installed, the runtime's SchedPoint calls become
// decision points that can deliver a pending abort one event earlier — so
// their row alone pins them.
func corpusRow(t *testing.T, name string, rc harness.RunConfig) string {
	t.Helper()
	rc.Record = rc.Sched != ""
	line, res := corpusLine(t, name, rc)
	if rc.Mode != stagger.ModeHTM {
		return line
	}
	rc.Record, rc.ReplayPicks = false, append([]uint32{}, res.SchedPicks...)
	if second, _ := corpusLine(t, name, rc); second != line {
		t.Fatalf("second spelling of the schedule differs\n got: %s\nwant: %s", second, line)
	}
	return line
}

// fingerprintRow is one line of the golden file and how to produce it.
// A long row is not run under -short; its committed line stands in.
type fingerprintRow struct {
	name string
	long bool
	line func(t *testing.T) string
}

// fingerprintRows lists the golden file's rows in file order.
func fingerprintRows() []fingerprintRow {
	var rows []fingerprintRow
	cell := func(name string, rc harness.RunConfig) {
		rows = append(rows, fingerprintRow{name: name,
			line: func(t *testing.T) string { return fingerprint(t, name, rc) }})
	}
	modes := []stagger.Mode{stagger.ModeHTM, stagger.ModeAddrOnly, stagger.ModeStaggeredSW, stagger.ModeStaggeredHW}
	for _, wl := range workloads.Names() {
		for _, m := range modes {
			cell(fmt.Sprintf("%s mode=%s t4 ops400", wl, m),
				harness.RunConfig{Benchmark: wl, Mode: m, Threads: 4, Seed: 42, TotalOps: 400})
		}
		for _, bk := range backend.Names() {
			cell(fmt.Sprintf("%s backend=%s t4 ops400", wl, bk),
				harness.RunConfig{Benchmark: wl, Backend: bk, Threads: 4, Seed: 42, TotalOps: 400})
		}
	}
	for _, wl := range workloads.Names() {
		for _, m := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
			cell(fmt.Sprintf("%s mode=%s t16", wl, m),
				harness.RunConfig{Benchmark: wl, Mode: m, Threads: harness.PaperThreads, Seed: 42})
		}
	}
	// The retired timing gate's quick matrix; its t4 cells are above.
	for _, wl := range []string{"list-hi", "kmeans"} {
		for _, m := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
			cell(fmt.Sprintf("%s mode=%s t1 ops400", wl, m),
				harness.RunConfig{Benchmark: wl, Mode: m, Threads: 1, Seed: 42, TotalOps: 400})
		}
	}
	// The paper sequence is ~5 s of 16-thread cells.
	rows = append(rows, fingerprintRow{name: "cmd/paper seed=42", long: true, line: func(t *testing.T) string {
		harness.ClearCache()
		defer harness.ClearCache()
		return fmt.Sprintf("cmd/paper seed=42 sha256=%x", sha256.Sum256(paperBytes(t, 42)))
	}})
	campaign := func(wl, bk, spec string) {
		ec := harness.ExploreConfig{Benchmark: wl, Backend: bk, Threads: 4, Seed: 42, TotalOps: 160, Spec: spec, Runs: 8}
		name := fmt.Sprintf("explore %s backend=%s t%d ops%d %s x%d", wl, bk, ec.Threads, ec.TotalOps, spec, ec.Runs)
		rows = append(rows, fingerprintRow{name: name,
			line: func(t *testing.T) string { return exploreFingerprint(t, name, ec) }})
	}
	for _, wl := range workloads.Names() {
		for _, bk := range []string{"staggered", "occ"} {
			campaign(wl, bk, "pct:3")
		}
	}
	for _, wl := range []string{"list-hi", "memcached"} {
		for _, bk := range []string{"staggered", "occ"} {
			campaign(wl, bk, "random")
		}
	}
	// Lazy (committer-wins) conflict detection, which the spellings above
	// never select: a list and a STAMP workload at both thread counts.
	for _, wl := range []string{"list-hi", "genome"} {
		for _, m := range []stagger.Mode{stagger.ModeHTM, stagger.ModeStaggeredHW} {
			cell(fmt.Sprintf("%s mode=%s lazy t4 ops400", wl, m),
				harness.RunConfig{Benchmark: wl, Mode: m, Threads: 4, Seed: 42, TotalOps: 400, Lazy: true})
			cell(fmt.Sprintf("%s mode=%s lazy t16", wl, m),
				harness.RunConfig{Benchmark: wl, Mode: m, Threads: harness.PaperThreads, Seed: 42, Lazy: true})
		}
	}
	for _, wl := range workloads.Names() {
		for _, seed := range corpusSeeds {
			for v := range corpusVariants {
				name := fmt.Sprintf("%s/seed%d/%s", wl, seed, corpusVariants[v].name)
				rc := corpusCell(wl, seed, 4, corpusOps(wl), v)
				rows = append(rows, fingerprintRow{name: name, long: seed != corpusSeeds[0],
					line: func(t *testing.T) string { return corpusRow(t, name, rc) }})
			}
		}
	}
	return rows
}

// TestFingerprints pins the simulated output of every way a cell can be
// spelled — each Mode with no backend named, each registered backend —
// on every workload, plus the paper's 16-thread matrix, the one-thread
// cells whose event counts the retired host-timing gate pinned, and the
// bytes of cmd/paper's whole sequence, and after that the scheduler-
// driven rows: an oracle-checked PCT campaign per workload on the
// staggered and occ backends (random too on list-hi and memcached), the
// lazy-detection cells, and last the corpus: every workload × seeds {1,
// 42, 1337} × corpusVariants at 4 threads, each row the hashes of its
// trace, metrics report, statistics and final memory and its two
// verdicts (corpusRow also checks an HTM-mode cell's second spelling).
// Rows run as parallel subtests; the whole file is compared once they
// are done, so a stale row fails as surely as a changed one. A refactor
// of the run path, the memo, the sweep runner, the engine or what a
// campaign keeps between its schedules must leave this file untouched;
// -update is for changes to the simulation itself. -short keeps the
// committed cmd/paper line and sweeps one corpus seed.
func TestFingerprints(t *testing.T) {
	if testing.Short() && *updateFingerprints {
		t.Fatal("-update needs the full run (no -short)")
	}
	old, readErr := os.ReadFile(fingerprintFile)
	committed := strings.Split(strings.TrimSuffix(string(old), "\n"), "\n")
	rows := fingerprintRows()
	lines := make([]string, len(rows))
	// Cleanup runs after every parallel row has finished.
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		got := strings.Join(lines, "\n") + "\n"
		if *updateFingerprints {
			if err := os.WriteFile(fingerprintFile, []byte(got), 0o644); err != nil {
				t.Error(err)
			}
			return
		}
		if readErr != nil {
			t.Errorf("%v (run with -update to create it)", readErr)
			return
		}
		if got == string(old) {
			return
		}
		differ := 0
		for i := range min(len(lines), len(committed)) {
			if lines[i] != committed[i] {
				if differ == 0 {
					t.Errorf("%s line %d differs\n got: %s\nwant: %s", fingerprintFile, i+1, lines[i], committed[i])
				}
				differ++
			}
		}
		t.Errorf("%s: %d lines differ; %d lines, want %d", fingerprintFile, differ, len(lines), len(committed))
	})
	for i, r := range rows {
		if r.long && testing.Short() {
			if i < len(committed) {
				lines[i] = committed[i]
			}
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			lines[i] = r.line(t)
		})
	}
}

// FuzzEngineEquivalence explores whole experiment cells: the fuzzer
// picks a workload, seed, corpus variant, and thread count, and the cell
// must pass the serializability oracle and the workload's own
// verification, and replaying its recorded schedule (or, without a
// scheduler, running it again) must reproduce its corpus row byte for
// byte. The seed corpus enumerates the configurations the paper table
// generators sweep (Table 1's benchmarks at one and many threads, each
// corpus variant), so minimized counterexamples land in the same cell
// space the experiments use.
func FuzzEngineEquivalence(f *testing.F) {
	// Table 1's row order (the paper's six representative benchmarks),
	// at sequential and contended thread counts — the exact cells the
	// table generators warm first.
	names := workloads.Names()
	idx := make(map[string]uint8, len(names))
	for i, n := range names {
		idx[n] = uint8(i)
	}
	for _, bench := range []string{"list-hi", "tsp", "memcached", "intruder", "kmeans", "vacation"} {
		f.Add(idx[bench], int64(42), uint8(0), uint8(0))
		f.Add(idx[bench], int64(42), uint8(0), uint8(3))
	}
	// Each variant once on the highest-contention benchmark.
	for v := range corpusVariants {
		f.Add(uint8(0), int64(1), uint8(v), uint8(4))
	}
	f.Fuzz(func(t *testing.T, benchRaw uint8, seed int64, variantRaw uint8, threadsRaw uint8) {
		bench := names[int(benchRaw)%len(names)]
		v := int(variantRaw) % len(corpusVariants)
		threads := 1 + int(threadsRaw)%4
		if seed == 0 {
			seed = 42
		}
		ops := min(corpusOps(bench), 64) // fuzz iterations stay fast; the corpus covers depth
		name := fmt.Sprintf("fuzz-%s-seed%d-%s-t%d", bench, seed, corpusVariants[v].name, threads)
		rc := corpusCell(bench, seed, threads, ops, v)
		rc.Record = true
		line, res := corpusLine(t, name, rc)
		if res.OracleErr != nil || res.VerifyErr != nil {
			t.Fatalf("%s: oracle %v, verify %v", name, res.OracleErr, res.VerifyErr)
		}
		rc.Record, rc.ReplayPicks = false, res.SchedPicks
		if replay, _ := corpusLine(t, name, rc); replay != line {
			t.Fatalf("replay diverges from the recording\n got: %s\nwant: %s", replay, line)
		}
	})
}
