// Package equivalence is the differential test harness proving the
// cooperative single-goroutine engine bit-identical to the reference
// engine. The oracle is the original goroutine-per-core channel
// lock-step engine with a full minimum scan at every sync, retained
// behind htm.Config.RefEngine.
//
// Every check in this package runs one experiment cell twice, identical
// in everything except the engine, and compares serialized observables
// byte for byte: the full transaction event trace, the obs metrics
// report JSON, the complete statistics block, the serializability-oracle
// verdict, and the workload's own invariant check. The suite sweeps all
// workloads × seeds × {plain, staggered, hardened, chaos, PCT} (Variants
// says what each name runs); the fuzz target (FuzzEngineEquivalence)
// explores the same cell space from a corpus seeded with the paper table
// generators' configurations.
//
// On a mismatch the suite writes an artifact directory with both traces
// and the first-divergence event index (see WriteArtifacts), which CI
// uploads so a failing pair can be diffed without reproducing locally.
package equivalence

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/stagger"
)

// Variant is one system configuration layered onto a workload cell.
type Variant struct {
	Name  string
	Apply func(*harness.RunConfig)
}

// Variants returns the configuration axis of the differential suite:
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

// RunPair executes rc on the cooperative engine and again on the
// reference engine (all else identical) and returns both results.
func RunPair(rc harness.RunConfig) (coop, ref *harness.Result, err error) {
	coop, err = harness.Run(rc)
	if err != nil {
		return nil, nil, fmt.Errorf("cooperative engine: %w", err)
	}
	refCfg := rc
	mc := htm.DefaultConfig()
	if rc.Machine != nil {
		mc = *rc.Machine
	}
	mc.RefEngine = true
	refCfg.Machine = &mc
	ref, err = harness.Run(refCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("reference engine: %w", err)
	}
	return coop, ref, nil
}

// Observables is everything the suite compares byte for byte.
type Observables struct {
	// Trace is the formatted transaction event trace (htm.FormatTrace).
	Trace []byte
	// Events is the raw recorded event sequence behind Trace.
	Events []htm.TraceEvent
	// Metrics is the obs metrics report JSON.
	Metrics []byte
	// Stats is the full statistics block (every per-core counter) as JSON.
	Stats []byte
	// Oracle is the serializability verdict ("ok <n> commits" or the
	// violation text); Verify is the workload invariant verdict.
	Oracle string
	Verify string
}

// Observe serializes a run's compared observables.
func Observe(r *harness.Result) (*Observables, error) {
	o := &Observables{
		Trace:  []byte(htm.FormatTrace(r.Trace)),
		Events: r.Trace,
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

// Mismatch describes the first observed divergence between the two
// engines' observables for one cell.
type Mismatch struct {
	// Field names the diverging observable ("trace", "metrics", "stats",
	// "oracle", "verify").
	Field string
	// EventIndex is the first diverging trace event's index (trace
	// mismatches only; -1 otherwise).
	EventIndex int
	// Coop and Ref are the two serialized observables.
	Coop, Ref []byte
}

// Diff compares two observable sets and returns the first mismatch, or
// nil when they are byte-identical. Trace divergence is located at event
// granularity so the artifact names the exact first diverging event.
func Diff(coop, ref *Observables) *Mismatch {
	if !bytes.Equal(coop.Trace, ref.Trace) {
		idx := len(coop.Events)
		if len(ref.Events) < idx {
			idx = len(ref.Events)
		}
		for i := 0; i < idx; i++ {
			if coop.Events[i] != ref.Events[i] {
				idx = i
				break
			}
		}
		return &Mismatch{Field: "trace", EventIndex: idx, Coop: coop.Trace, Ref: ref.Trace}
	}
	if !bytes.Equal(coop.Metrics, ref.Metrics) {
		return &Mismatch{Field: "metrics", EventIndex: -1, Coop: coop.Metrics, Ref: ref.Metrics}
	}
	if !bytes.Equal(coop.Stats, ref.Stats) {
		return &Mismatch{Field: "stats", EventIndex: -1, Coop: coop.Stats, Ref: ref.Stats}
	}
	if coop.Oracle != ref.Oracle {
		return &Mismatch{Field: "oracle", EventIndex: -1, Coop: []byte(coop.Oracle), Ref: []byte(ref.Oracle)}
	}
	if coop.Verify != ref.Verify {
		return &Mismatch{Field: "verify", EventIndex: -1, Coop: []byte(coop.Verify), Ref: []byte(ref.Verify)}
	}
	return nil
}

// ArtifactDirEnv names the environment variable CI sets to collect
// mismatch artifacts for upload; unset, artifacts go under the default
// relative directory.
const ArtifactDirEnv = "EQUIVALENCE_ARTIFACTS"

// WriteArtifacts dumps a mismatching pair for one named cell: the
// cooperative and reference serializations side by side plus a DIVERGE
// file with the field and first-divergence event index. It returns the
// cell's artifact directory.
func WriteArtifacts(cell string, m *Mismatch) (string, error) {
	root := os.Getenv(ArtifactDirEnv)
	if root == "" {
		root = "equivalence-artifacts"
	}
	dir := filepath.Join(root, cell)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	summary := fmt.Sprintf("field: %s\nfirst-divergence-event-index: %d\n", m.Field, m.EventIndex)
	files := []struct {
		name string
		data []byte
	}{
		{"DIVERGE", []byte(summary)},
		{"coop." + m.Field, m.Coop},
		{"ref." + m.Field, m.Ref},
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// Check runs one cell on both engines, compares every observable, and
// on divergence writes the artifact pair and returns a descriptive
// error. A nil return certifies the cell byte-identical.
func Check(cellName string, rc harness.RunConfig) error {
	coop, ref, err := RunPair(rc)
	if err != nil {
		return err
	}
	co, err := Observe(coop)
	if err != nil {
		return err
	}
	ro, err := Observe(ref)
	if err != nil {
		return err
	}
	m := Diff(co, ro)
	if m == nil {
		return nil
	}
	dir, werr := WriteArtifacts(cellName, m)
	if werr != nil {
		return fmt.Errorf("%s: engines diverge in %s (first event index %d); artifact dump failed: %v",
			cellName, m.Field, m.EventIndex, werr)
	}
	return fmt.Errorf("%s: engines diverge in %s (first event index %d); artifacts in %s",
		cellName, m.Field, m.EventIndex, dir)
}
