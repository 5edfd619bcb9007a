// Package equivalence pins the simulator's observable behaviour to a
// certified corpus. testdata/observables.golden holds one line per cell
// of workloads × seeds × {plain, staggered, hardened, chaos, pct}
// (Variants says what each name runs): the sha256 of the formatted
// transaction trace, of the obs metrics report JSON, of the statistics
// JSON and of final memory, and the serializability-oracle and
// workload-verification verdicts. The cooperative engine wrote the corpus
// and, in the same change, the goroutine-per-core reference engine it
// replaced (a full minimum scan at every event) produced it byte for byte.
//
// Beside the corpus the suite spells the default schedule a second way.
// An HTM-mode cell run with an empty replay (ReplayPicks: []uint32{})
// decides every event through the engine's candidate scan and an
// exhausted replay's smallest-clock pick instead of the inlined keep
// test, and must produce the same line; a PCT cell must produce it again
// when its recorded decisions are replayed. Staggered-family cells have
// no second spelling — with a scheduler installed, the runtime's
// SchedPoint calls become decision points that can deliver a pending
// abort one event earlier — so the corpus alone pins them. The fuzz
// target checks the oracle, verification and record → replay identity
// over the same cell space.
package equivalence

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stagger"
)

// Variant is one system configuration layered onto a workload cell.
type Variant struct {
	Name  string
	Apply func(*harness.RunConfig)
}

// Variants returns the configuration axis of the corpus suite:
// baseline HTM, the full staggered system, the chaos campaign's cell,
// light deterministic fault injection, and an adversarial PCT schedule.
// Record/replay and the random scheduler are covered separately by the
// replay-determinism tests.
//
// "hardened" keeps the name it had while the campaign ran a self-healing
// runtime configuration. That configuration is deleted and the campaign
// runs the paper's runtime, so the cell is DefaultConfig under
// ChaosWatchdog at the campaign's highest default rate; renaming it
// would drop thirty recorded subtest names in one change.
func Variants() []Variant {
	return []Variant{
		{Name: "plain", Apply: func(rc *harness.RunConfig) {
			rc.Mode = stagger.ModeHTM
		}},
		{Name: "staggered", Apply: func(rc *harness.RunConfig) {
			rc.Mode = stagger.ModeStaggeredHW
		}},
		{Name: "hardened", Apply: func(rc *harness.RunConfig) {
			rc.Mode = stagger.ModeStaggeredHW
			ccfg := chaos.Scaled(0.05, rc.Seed)
			rc.Chaos = &ccfg
			rc.Watchdog = harness.ChaosWatchdog
		}},
		{Name: "chaos", Apply: func(rc *harness.RunConfig) {
			rc.Mode = stagger.ModeStaggeredHW
			ccfg := chaos.Scaled(0.01, rc.Seed)
			rc.Chaos = &ccfg
			rc.Watchdog = 500_000_000
		}},
		{Name: "pct", Apply: func(rc *harness.RunConfig) {
			rc.Mode = stagger.ModeHTM
			rc.Sched = "pct:3"
			rc.SchedSeed = rc.Seed + 1
		}},
	}
}

// Cell builds the canonical cell config for one (benchmark, seed,
// variant) triple: full tracing on (extended events included, so the
// advisory-lock and irrevocable annotations are compared too) and the
// serializability oracle installed.
func Cell(bench string, seed int64, threads, ops int, v Variant) harness.RunConfig {
	rc := harness.RunConfig{
		Benchmark: bench,
		Threads:   threads,
		Seed:      seed,
		TotalOps:  ops,
		TraceN:    -1,
		ExtTrace:  true,
		Oracle:    true,
	}
	v.Apply(&rc)
	return rc
}

// Run executes rc and serializes its observables.
func Run(rc harness.RunConfig) (*Observables, error) {
	res, m, err := harness.RunWithMemory(rc)
	if err != nil {
		return nil, err
	}
	return Observe(res, m)
}

// RecordReplay runs rc recording its scheduler's decisions, then again
// replaying them, and returns both observable sets. A cell without a
// scheduler has nothing to record, and its second run repeats the first.
func RecordReplay(rc harness.RunConfig) (rec, replay *Observables, err error) {
	rc.Record = true
	res, m, err := harness.RunWithMemory(rc)
	if err != nil {
		return nil, nil, err
	}
	if rec, err = Observe(res, m); err != nil {
		return nil, nil, err
	}
	rc.Record = false
	rc.ReplayPicks = res.SchedPicks
	if replay, err = Run(rc); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	return rec, replay, nil
}

// Observables is everything a corpus line pins.
type Observables struct {
	// Trace is the formatted transaction event trace (htm.FormatTrace).
	Trace []byte
	// Metrics is the obs metrics report JSON.
	Metrics []byte
	// Stats is the full statistics block (every per-core counter) as JSON;
	// the host-side Engine counts are not part of it.
	Stats []byte
	// Memory is the sha256 of final memory: every nonzero word's address
	// and value, in address order.
	Memory [32]byte
	// Oracle is the serializability verdict ("ok <n> commits" or the
	// violation text); Verify is the workload invariant verdict.
	Oracle string
	Verify string
}

// Observe serializes a run's compared observables; m is the run's final
// memory.
func Observe(r *harness.Result, m *mem.Memory) (*Observables, error) {
	o := &Observables{
		Trace:  []byte(htm.FormatTrace(r.Trace)),
		Memory: memoryDigest(m),
		Oracle: fmt.Sprintf("ok %d commits", r.OracleCommits),
		Verify: "ok",
	}
	if r.OracleErr != nil {
		o.Oracle = r.OracleErr.Error()
	}
	if r.VerifyErr != nil {
		o.Verify = r.VerifyErr.Error()
	}
	var err error
	if o.Metrics, err = json.MarshalIndent(obs.Snapshot(r), "", "  "); err != nil {
		return nil, err
	}
	if o.Stats, err = json.MarshalIndent(r.Stats, "", "  "); err != nil {
		return nil, err
	}
	return o, nil
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

// Line is the cell's corpus line: its name, the sha256 of each serialized
// observable, and the two verdicts.
func (o *Observables) Line(name string) string {
	return fmt.Sprintf("%s trace=%x metrics=%x stats=%x memory=%x oracle=%q verify=%q",
		name, sha256.Sum256(o.Trace), sha256.Sum256(o.Metrics), sha256.Sum256(o.Stats),
		o.Memory, o.Oracle, o.Verify)
}
