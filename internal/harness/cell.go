package harness

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/sched"
	"repro/internal/stagger"
)

// Cell is the one encoding of an experiment cell's simulation input:
// the daemon's wire form, the durable-store key and the in-process memo
// key (Key), the header of a recorded schedule (SchedTrace) and the run
// tags of a Perfetto timeline (internal/obs). Every field is
// deterministic simulation input; RunConfig's overrides and side
// channels have no spelling here. A new cell input is added here and
// nowhere else (TestRunConfigFieldsKeyedOrUncacheable).
type Cell struct {
	Bench     string  `json:"bench"`
	Mode      string  `json:"mode,omitempty"`     // "" = "staggered" (see stagger.ParseMode)
	Backend   string  `json:"backend,omitempty"`  // "" = "htm" under mode htm, else "staggered" (see backend.Names)
	Capacity  int     `json:"capacity,omitempty"` // limited backend's line capacity; 0 = its default
	Threads   int     `json:"threads,omitempty"`  // 0 = 4
	Seed      int64   `json:"seed,omitempty"`     // 0 = DefaultSeed
	Ops       int     `json:"ops,omitempty"`      // 0 = the workload's default
	Naive     bool    `json:"naive,omitempty"`
	Lazy      bool    `json:"lazy,omitempty"`
	Sched     string  `json:"sched,omitempty"` // see sched.Parse
	SchedSeed int64   `json:"sched_seed,omitempty"`
	Oracle    bool    `json:"oracle,omitempty"`
	ChaosRate float64 `json:"chaos_rate,omitempty"` // every fault class at this rate (chaos.Scaled)
	ChaosSeed int64   `json:"chaos_seed,omitempty"` // 0 = Seed
	Watchdog  uint64  `json:"watchdog,omitempty"`   // 0 = none (chaos cells: ChaosWatchdog)
}

// Normalize validates c, applies the cell defaults and lowers it to the
// RunConfig it selects. The Cell it returns is that RunConfig encoded
// back (CellOf), so equivalent spellings of one simulation normalize to
// one Cell and share one Key.
func (c Cell) Normalize() (Cell, RunConfig, error) {
	fail := func(format string, args ...any) (Cell, RunConfig, error) {
		return c, RunConfig{}, fmt.Errorf("cell: "+format, args...)
	}
	if c.Bench == "" {
		return fail("bench is required")
	}
	m, err := stagger.ParseMode(cmp.Or(c.Mode, "staggered"))
	if err != nil {
		return fail("%w", err)
	}
	if c.Capacity < 0 {
		return fail("capacity %d must be nonnegative", c.Capacity)
	}
	if c.Capacity != 0 && c.Backend != "limited" {
		return fail("capacity is a knob of the limited backend, not %q", c.Backend)
	}
	if c.ChaosRate < 0 || c.ChaosRate > 1 {
		return fail("chaos_rate %g outside [0,1]", c.ChaosRate)
	}
	rc := RunConfig{
		Benchmark: c.Bench,
		Mode:      m,
		Backend:   c.Backend,
		Capacity:  c.Capacity,
		Threads:   cmp.Or(c.Threads, 4),
		Seed:      c.Seed,
		TotalOps:  c.Ops,
		Naive:     c.Naive,
		Lazy:      c.Lazy,
		Sched:     c.Sched,
		SchedSeed: c.SchedSeed,
		Oracle:    c.Oracle,
		Watchdog:  c.Watchdog,
	}
	if c.ChaosRate > 0 {
		seed := c.ChaosSeed
		if seed == 0 {
			seed = cmp.Or(c.Seed, DefaultSeed)
		}
		cc := chaos.Scaled(c.ChaosRate, seed)
		rc.Chaos = &cc
	}
	n, err := normalize(rc)
	if err != nil {
		return fail("%w", err)
	}
	nc, err := CellOf(n.rc) // no override, and a Scaled fault mix: never fails
	return nc, n.rc, err
}

// CellOf encodes rc as a Cell, the inverse of Normalize's lowering. The
// side channels (trace capture, the watchdog's trace ring, pick
// recording and replay) are not simulation input and are dropped. A
// Machine or Stagger override, or a fault mix other than chaos.Scaled,
// has no spelling, and is an error rather than a Cell that names some
// other simulation.
func CellOf(rc RunConfig) (Cell, error) {
	switch {
	case rc.Machine != nil:
		return Cell{}, fmt.Errorf("harness: a Machine override has no cell encoding")
	case rc.Stagger != nil:
		return Cell{}, fmt.Errorf("harness: a Stagger override has no cell encoding")
	}
	c := Cell{
		Bench:     rc.Benchmark,
		Mode:      modeToken(rc.Mode),
		Backend:   rc.Backend,
		Capacity:  rc.Capacity,
		Threads:   rc.Threads,
		Seed:      rc.Seed,
		Ops:       rc.TotalOps,
		Naive:     rc.Naive,
		Lazy:      rc.Lazy,
		Sched:     rc.Sched,
		SchedSeed: rc.SchedSeed,
		Oracle:    rc.Oracle,
		Watchdog:  rc.Watchdog,
	}
	if cc := rc.Chaos; cc != nil && cc.Enabled() {
		if *cc != chaos.Scaled(cc.AbortRate, cc.Seed) {
			return Cell{}, fmt.Errorf("harness: fault mix %+v is not chaos.Scaled and has no cell encoding", *cc)
		}
		c.ChaosRate, c.ChaosSeed = cc.AbortRate, cc.Seed
	}
	return c, nil
}

// modeToken is the canonical cell spelling of each mode, the inverse of
// stagger.ParseMode's preferred forms.
func modeToken(m stagger.Mode) string {
	switch m {
	case stagger.ModeHTM:
		return "htm"
	case stagger.ModeAddrOnly:
		return "addronly"
	case stagger.ModeStaggeredSW:
		return "sw"
	default:
		return "staggered"
	}
}

// Key is c's durable-store and memo key; c should be normalized, so that
// every spelling of one simulation has one key. The CacheSchema prefix
// means a schema bump silently invalidates every old entry: stale-format
// payloads are never found, they age out as misses and are recomputed
// under the new schema.
func (c Cell) Key() string {
	b, _ := json.Marshal(c) // fixed field order, no maps
	return fmt.Sprintf("v%d|cell|%s", CacheSchema, b)
}

// SchedTrace packages a decision sequence recorded under rc as a trace
// whose header is rc's cell, everything a replay needs. A cell with no
// encoding (see CellOf) is an error, never a header that replays some
// other simulation.
func SchedTrace(rc RunConfig, picks []uint32) (*sched.Trace, error) {
	c, err := CellOf(rc)
	if err != nil {
		return nil, err
	}
	hdr, _ := json.Marshal(c)
	return &sched.Trace{Version: sched.TraceVersion, Cell: hdr, Picks: picks}, nil
}

// DecodeTrace parses a trace file's bytes into the cell it was recorded
// under and its decision sequence (RunConfig.ReplayPicks). It is strict: a header field Cell does not know
// is an error, not a setting silently dropped.
func DecodeTrace(data []byte) (Cell, []uint32, error) {
	t, err := sched.Decode(data)
	if err != nil {
		return Cell{}, nil, err
	}
	var c Cell
	dec := json.NewDecoder(bytes.NewReader(t.Cell))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Cell{}, nil, fmt.Errorf("sched: bad trace cell: %v", err)
	}
	return c, t.Picks, nil
}
