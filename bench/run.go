package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sizes are the benchmark's fixed dimensions. They are constants, not
// knobs: -smoke swaps in a set ~20x smaller so the tests can exercise
// every code path quickly, and its numbers mean nothing.
type sizes struct {
	minPasses   int
	seqSeeds    int // seq-t1: seeds per benchmark x backend
	exploreRuns int // explore-pct: schedules per benchmark, over exploreSeeds workload seeds
	coldJobs    int // svc-cold: jobs per client per pass
	warmSpecs   int // svc-warm: distinct specs per client
	warmJobs    int // svc-warm: jobs per client per pass
	setupReps   int // svc-cold: server boots the set-up time is the median of
	kernelN     int // peel kernels: events on the keep and memory paths
	handoffN    int // peel kernels: events on the handoff path
	txN         int // peel kernels: commits
	samples     int // direct journal/store/submit samples
}

var (
	fullSizes = sizes{minPasses: 3, seqSeeds: 10, exploreRuns: 200, coldJobs: 25, warmSpecs: 20,
		warmJobs: 250, setupReps: 5, kernelN: 400_000, handoffN: 200_000, txN: 20_000, samples: 200}
	smokeSizes = sizes{minPasses: 1, seqSeeds: 1, exploreRuns: 8, coldJobs: 2, warmSpecs: 2,
		warmJobs: 12, setupReps: 1, kernelN: 20_000, handoffN: 10_000, txN: 1_000, samples: 10}
)

// check is one correctness or validity condition of a run. A failed check
// makes the run incorrect and the exit code non-zero.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// tail is a latency series' highest trustworthy percentile.
type tail struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// run is the state of one workload run in one process.
type run struct {
	workload string
	why      string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	sz       sizes
	startup  time.Duration // exec to main's first instruction, when the launcher told us (else 0)
	outDir   string        // bench/out, under the working directory

	tr        *tracer
	metrics   map[string]sample
	tails     map[string]tail
	checks    []check
	attempted int
	failed    int
	passS     []float64 // every timed pass, in order
	calibMS   []float64
	firstFail string // the first failed operation, for the report

	steal0, cpu0 float64 // /proc/stat at the start of the run
}

func newRun(def workloadDef, seed int64, seconds int, trace, smoke bool, started time.Time) *run {
	r := &run{workload: def.name, why: def.why, seed: seed, seconds: seconds, trace: trace, smoke: smoke, sz: fullSizes,
		outDir:  filepath.Join("bench", "out"),
		metrics: map[string]sample{}, tails: map[string]tail{}}
	if smoke {
		r.sz, r.seconds = smokeSizes, 0 // the fewest passes
	}
	if _, err := os.Stat("bench"); err != nil {
		r.outDir = "out" // started inside bench/ (go run .) rather than by run.sh at the root
	}
	r.steal0, r.cpu0 = stealJiffies()
	// The launcher (run.sh) exports the instant it exec'd the binary, so
	// that package initialisation — where a later change could hide work —
	// is part of set-up time.
	if ns, err := strconv.ParseInt(os.Getenv("BENCH_EXEC_NS"), 10, 64); err == nil {
		if d := started.Sub(time.Unix(0, ns)); d > 0 && d < time.Minute {
			r.startup = d
		}
	}
	return r
}

func (r *run) set(name string, value float64, n int) {
	r.metrics[name] = sample{Value: value, Unit: unitOf(name), N: n}
}

// latency records a series' median under name+"_p50" and remembers its
// highest percentile that still has ten samples beyond it.
func (r *run) latency(name string, xs []float64) {
	asc := sorted(xs)
	r.set(name+"_p50", percentile(asc, p50), len(asc))
	if pm := tailPercentile(len(asc)); pm > 0 {
		r.tails[name] = tail{P: float64(pm) / 10, Value: percentile(asc, pm), Unit: unitOf(name + "_p50"), N: len(asc)}
	}
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstFail == "" {
			r.firstFail = err.Error()
		}
	}
}

// passCount turns the driver's --seconds into a whole number of passes of
// the fixed batch, from the workload's nominal pass time on the reference
// box: the host's speed never changes how much work a run measures.
func (r *run) passCount(nominalPassS float64, maxPasses int) int {
	n := int(math.Round(float64(r.seconds) / nominalPassS))
	if n > maxPasses {
		n = maxPasses
	}
	if n < r.sz.minPasses {
		n = r.sz.minPasses
	}
	return n
}

// calibrate runs the host calibration kernel (before every pass).
func (r *run) calibrate() {
	r.calibMS = append(r.calibMS, float64(calibrate())/1e6)
}

// noisy flags a run during which the host changed under it: the
// calibration kernel's time moved by more than noisySpread, or a
// neighbour took more than noisySteal of the machine.
func (r *run) noisy() bool {
	return spread(r.calibMS) > noisySpread || r.metrics["host.steal_share"].Value > noisySteal
}

// finishHost records the host-layer metrics every run has.
func (r *run) finishHost() {
	steal, cpu := stealJiffies()
	r.set("host.steal_share", ratio(steal-r.steal0, cpu-r.cpu0), 1)
	r.set("host.startup_ms", float64(r.startup)/1e6, 1)
	r.set("host.calib_ms_p50", median(r.calibMS), len(r.calibMS))
	r.set("host.calib_spread", spread(r.calibMS), len(r.calibMS))
}

// passStats is what the timed loop keeps from each pass.
type passStats struct {
	setupS, passS, jobMS []float64
	digests              []string
	mem                  []memDelta
}

func (r *run) finishMem(ps *passStats) {
	var mb, mallocs, gc []float64
	for _, d := range ps.mem {
		mb, mallocs, gc = append(mb, d.AllocMB), append(mallocs, d.Mallocs), append(gc, d.GCShare)
	}
	r.set("host.alloc_mb_per_pass", median(mb), len(mb))
	r.set("host.mallocs_per_pass", median(mallocs), len(mallocs))
	r.set("host.gc_cpu_share", median(gc), len(gc))
}

// timedPass is one timed pass of a direct workload: calibration, a clean
// harness, then pass under the clock and the allocator's counters.
func (r *run) timedPass(ps *passStats, pass func() (jobMS []float64, dig string, err error)) error {
	r.calibrate()
	prePass()
	mm, start := markMem(), time.Now()
	jobMS, dig, err := pass()
	if err != nil {
		return err
	}
	ps.passS = append(ps.passS, time.Since(start).Seconds())
	ps.mem = append(ps.mem, mm.since())
	ps.jobMS = append(ps.jobMS, jobMS...)
	ps.digests = append(ps.digests, dig)
	return nil
}

// referencePass is the untraced pass a traced run starts with: what the
// traced pass's time is compared to, and where the allocation metrics
// come from.
func (r *run) referencePass(pass func() (jobMS []float64, dig string, err error)) (seconds float64, dig string, err error) {
	var ps passStats
	if err := r.timedPass(&ps, pass); err != nil {
		return 0, "", err
	}
	r.finishMem(&ps)
	return ps.passS[0], ps.digests[0], nil
}

// finishEndToEnd records the end-to-end metrics, and the allocation
// metrics beside them, from the timed passes. Set-up is the median of
// ps.setupS (none recorded: no set-up) plus the time from exec to main and
// the first pass's calibration: all of it is what a user waits for before
// any work is timed.
func (r *run) finishEndToEnd(ps *passStats, units float64, unitName string) error {
	r.passS = ps.passS
	r.set("setup_s", r.startup.Seconds()+median(ps.setupS)+r.calibMS[0]/1e3, max(1, len(ps.setupS)))
	r.set("pass_s", median(ps.passS), len(ps.passS))
	r.latency("job_ms", ps.jobMS)
	r.set(unitName+"_per_s", units/median(ps.passS), len(ps.passS))
	r.finishMem(ps)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, 1)
	return nil
}

// digest hashes the sorted lines: the order cells finished in must not
// matter, only what they produced.
func digest(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	return sha([]byte(strings.Join(s, "\n")))
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sameDigests checks that every pass produced the same digest and records
// it, so two commits can be compared exactly.
func (r *run) sameDigests(name string, digests []string) {
	ok := len(digests) > 0
	for _, d := range digests {
		ok = ok && d == digests[0]
	}
	detail := "no passes"
	if len(digests) > 0 {
		detail = fmt.Sprintf("sha256 %s over %d passes", digests[0], len(digests))
	}
	r.check(name, ok, "%s", detail)
}
