package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/htm"
	"repro/internal/workloads"
)

// A chaos campaign sweeps fault-injection rates across benchmarks and
// checks that the paper's runtime degrades gracefully: every cell must
// finish under the watchdog and pass its workload's Verify invariants,
// whatever mix of spurious aborts, delayed NT stores, lost lock releases,
// and stall jitter is thrown at it. The output is a degradation curve —
// makespan at each fault rate normalized to the fault-free run — which is
// the robustness analogue of Figure 7.

// ChaosWatchdog bounds, in cycles, a fault-injected cell that names no
// watchdog of its own (normalize applies it to every run): an injected
// livelock must fail loudly and deterministically inside the simulation,
// with its last trace events, instead of eating wall-clock time.
const ChaosWatchdog = 200_000_000

// ChaosSweep configures one campaign.
type ChaosSweep struct {
	// Benchmarks to sweep; empty means all workloads.
	Benchmarks []string
	// Rates are the per-event fault probabilities to sweep. The first
	// rate-0 cell (added automatically if absent) is the degradation
	// denominator. Empty means {0, 0.002, 0.01, 0.05}.
	Rates []float64
	// Cell is the cell every (benchmark, rate) point runs; the sweep sets
	// its Benchmark and Chaos per point. Zero fields take the campaign's
	// defaults: PaperThreads, DefaultSeed (which also seeds the fault
	// schedule) and ChaosWatchdog.
	Cell RunConfig
}

// ChaosCell is one (benchmark, rate) result.
type ChaosCell struct {
	Bench string
	Rate  float64

	Makespan uint64
	Commits  uint64
	Aborts   uint64
	Spurious uint64 // injected-abort deliveries observed by the HTM
	Overflow uint64 // speculative-capacity aborts (the "limited" backend)

	// LockTimeouts counts advisory-lock waits abandoned at LockTimeout:
	// the runtime's whole cost for a lost release.
	LockTimeouts uint64

	// Faults counts what the injector actually fired, by class.
	Faults chaos.Counts

	// Degradation is Makespan over the same benchmark's rate-0 makespan.
	Degradation float64

	// VerifyErr records an invariant failure (the sweep also returns an
	// error, but the cell is kept for diagnosis).
	VerifyErr error
}

func (cs *ChaosSweep) defaults() {
	if len(cs.Benchmarks) == 0 {
		cs.Benchmarks = workloads.Names()
	}
	if len(cs.Rates) == 0 {
		cs.Rates = []float64{0, 0.002, 0.01, 0.05}
	}
	if cs.Rates[0] != 0 {
		cs.Rates = append([]float64{0}, cs.Rates...)
	}
	c := &cs.Cell
	if c.Threads == 0 {
		c.Threads = PaperThreads
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Watchdog == 0 {
		c.Watchdog = ChaosWatchdog
	}
}

// RunChaosSweep runs the campaign. It returns the cells in sweep order
// and an error if any cell hit the watchdog or failed verification —
// graceful degradation means slower, never wrong or stuck. Cells execute
// in parallel (up to the package worker default) but are folded into the
// report strictly in sweep order, so output and error reporting match a
// sequential campaign exactly.
func RunChaosSweep(cs ChaosSweep) ([]ChaosCell, error) {
	cs.defaults()
	type cellMeta struct {
		bench string
		rate  float64
	}
	var cfgs []RunConfig
	var metas []cellMeta
	for _, b := range cs.Benchmarks {
		for _, rate := range cs.Rates {
			rc := cs.Cell
			rc.Benchmark, rc.Chaos = b, nil
			if rate > 0 {
				ccfg := chaos.Scaled(rate, rc.Seed)
				rc.Chaos = &ccfg
			}
			cfgs = append(cfgs, rc)
			metas = append(metas, cellMeta{b, rate})
		}
	}
	var cells []ChaosCell
	var firstErr error
	var base uint64
	err := Sweep(context.Background(), cfgs, Workers(), func(i int, o RunOutcome) error {
		m := metas[i]
		if o.Err != nil {
			// Watchdog (or setup) failure: the campaign is already lost;
			// report it with the cell context attached.
			return fmt.Errorf("chaos sweep: rate %g: %w", m.rate, o.Err)
		}
		res := o.Res
		cell := ChaosCell{
			Bench:        m.bench,
			Rate:         m.rate,
			Makespan:     res.Makespan(),
			Commits:      res.Stats.Commits,
			Aborts:       res.Stats.TotalAborts(),
			Spurious:     res.Stats.Aborts[htm.AbortSpurious],
			Overflow:     res.Stats.Aborts[htm.AbortOverflow],
			LockTimeouts: res.Metrics.LockTimeouts,
			Faults:       res.Faults,
			VerifyErr:    res.VerifyErr,
		}
		if m.rate == 0 {
			base = cell.Makespan
		}
		if base != 0 {
			cell.Degradation = float64(cell.Makespan) / float64(base)
		}
		cells = append(cells, cell)
		if res.VerifyErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("chaos sweep: %s at rate %g: verify failed: %w",
				m.bench, m.rate, res.VerifyErr)
		}
		return nil
	})
	if err != nil {
		return cells, err
	}
	return cells, firstErr
}

// FormatChaos renders the campaign as per-benchmark degradation curves.
func FormatChaos(cells []ChaosCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos campaign: graceful degradation under injected faults\n")
	fmt.Fprintf(&b, "%-10s %7s %6s %9s %8s %8s %6s %6s  %s\n",
		"Benchmark", "rate", "ok", "makespan", "commits", "aborts",
		"spur", "tmo", "degradation")
	for _, c := range cells {
		ok := "Y"
		if c.VerifyErr != nil {
			ok = "FAIL"
		}
		fmt.Fprintf(&b, "%-10s %7.3g %6s %9d %8d %8d %6d %6d  %s\n",
			c.Bench, c.Rate, ok, c.Makespan, c.Commits, c.Aborts,
			c.Spurious, c.LockTimeouts, degradeBar(c.Degradation))
	}
	return b.String()
}

// degradeBar draws a normalized-makespan bar (1.0 = fault-free speed).
func degradeBar(v float64) string {
	n := int(v*10 + 0.5)
	if n < 0 {
		n = 0
	}
	if n > 60 {
		n = 60
	}
	return strings.Repeat("#", n) + fmt.Sprintf(" %.2fx", v)
}
