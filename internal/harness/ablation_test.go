package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/htm"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// The four self-healing mechanisms HardenedConfig turns on, as bits of an
// ablation mask.
const (
	mechLease = 1 << iota
	mechJitter
	mechExpBackoff
	mechEscape
	mechAll = mechLease | mechJitter | mechExpBackoff | mechEscape
)

// ablated is DefaultConfig with exactly the mechanisms in mask switched
// on at HardenedConfig's values: mask 0 is the paper's runtime, mechAll
// is HardenedConfig.
func ablated(mode stagger.Mode, mask int) stagger.Config {
	c, h := stagger.DefaultConfig(mode), stagger.HardenedConfig(mode)
	if mask&mechLease != 0 {
		c.LockLease = h.LockLease
	}
	if mask&mechJitter != 0 {
		c.LockPollJitter = h.LockPollJitter
	}
	if mask&mechExpBackoff != 0 {
		c.BackoffExp, c.BackoffCap = h.BackoffExp, h.BackoffCap
	}
	if mask&mechEscape != 0 {
		c.EscapeThreshold, c.EscapeCooldown = h.EscapeThreshold, h.EscapeCooldown
	}
	return c
}

func maskName(mask int) string {
	if mask == 0 {
		return "none (DefaultConfig)"
	}
	var on []string
	for bit, name := range []string{"lease", "jitter", "exp-backoff", "escape"} {
		if mask&(1<<bit) != 0 {
			on = append(on, name)
		}
	}
	s := strings.Join(on, "+")
	if mask == mechAll {
		s += " (HardenedConfig)"
	}
	return s
}

// TestHardeningAblation is ROADMAP item 8(a)'s measurement, taken before
// anything is deleted: the chaos campaign under every on/off combination
// of the four hardening mechanisms, on every system the campaign can
// run. The rule was fixed in advance — a mechanism whose absence changes
// no survival verdict (a cell that finishes under ChaosWatchdog and
// passes Verify) at any campaign rate goes — so the test fails on any
// cell whose verdict differs from the all-off runtime's, and on any cell
// that does not survive at all. The makespan table it logs is
// EXPERIMENTS.md "Chaos campaign on the paper's runtime".
//
// 16 combinations × 6 systems × 3 seeds × 10 workloads × 6 rates is
// 17,280 campaign cells, about 13 minutes on two cores, so it runs only
// when asked for with the time to finish:
//
//	go test ./internal/harness -run TestHardeningAblation -timeout 60m -v
func TestHardeningAblation(t *testing.T) {
	if d, ok := t.Deadline(); testing.Short() || ok && time.Until(d) < 30*time.Minute {
		t.Skip("full ablation grid: go test ./internal/harness -run TestHardeningAblation -timeout 60m -v")
	}
	systems := []struct {
		name string
		cell RunConfig
	}{
		{"Staggered t16", RunConfig{Mode: stagger.ModeStaggeredHW, Threads: 16}},
		{"Staggered t4", RunConfig{Mode: stagger.ModeStaggeredHW, Threads: 4}},
		{"Staggered+SW t16", RunConfig{Mode: stagger.ModeStaggeredSW, Threads: 16}},
		{"AddrOnly t16", RunConfig{Mode: stagger.ModeAddrOnly, Threads: 16}},
		{"HTM t16", RunConfig{Mode: stagger.ModeHTM, Threads: 16}},
		{"limited t16", RunConfig{Mode: stagger.ModeStaggeredHW, Backend: "limited", Threads: 16}},
	}
	seeds := []int64{42, 7, 1234}
	rates := []float64{0, 0.002, 0.01, 0.05, 0.1, 0.3}
	benches := workloads.Names()

	// verdict is "ok", or what went wrong; identical strings across masks
	// is the ablation's pass condition.
	verdict := func(o RunOutcome) string {
		var we *htm.WatchdogError
		switch {
		case errors.As(o.Err, &we):
			return "watchdog"
		case o.Err != nil:
			return "error: " + o.Err.Error()
		case o.Res.VerifyErr != nil:
			return "verify: " + o.Res.VerifyErr.Error()
		}
		return "ok"
	}

	// span[mask][rate] sums makespans over systems × seeds × workloads.
	var span [mechAll + 1][]uint64
	for m := range span {
		span[m] = make([]uint64, len(rates))
	}
	cells, differing, failing := 0, 0, 0
	for _, sys := range systems {
		for _, seed := range seeds {
			// One batch per (system, seed): every mask × workload × rate,
			// mask-major so the all-off verdicts land first.
			var cfgs []RunConfig
			for mask := 0; mask <= mechAll; mask++ {
				scfg := ablated(sys.cell.Mode, mask)
				for _, b := range benches {
					for _, rate := range rates {
						rc := sys.cell
						rc.Benchmark, rc.Seed = b, seed
						rc.Watchdog = ChaosWatchdog
						rc.Stagger = &scfg
						if rate > 0 {
							ccfg := chaos.Scaled(rate, seed)
							rc.Chaos = &ccfg
						}
						cfgs = append(cfgs, rc)
					}
				}
			}
			perMask := len(benches) * len(rates)
			base := make([]string, perMask)
			err := Sweep(context.Background(), cfgs, Workers(), func(i int, o RunOutcome) error {
				mask, at := i/perMask, i%perMask
				bench, ri := benches[at/len(rates)], at%len(rates)
				cells++
				v := verdict(o)
				if mask == 0 {
					base[at] = v
				} else if v != base[at] {
					differing++
					t.Errorf("%s seed %d %s rate %g: %s says %q, the paper's runtime says %q",
						sys.name, seed, bench, rates[ri], maskName(mask), v, base[at])
				}
				if v != "ok" {
					failing++
					t.Errorf("%s seed %d %s rate %g under %s: %s",
						sys.name, seed, bench, rates[ri], maskName(mask), v)
					return nil
				}
				if rates[ri] > 0 && o.Res.Faults.Total() == 0 {
					t.Errorf("%s seed %d %s rate %g: no faults injected", sys.name, seed, bench, rates[ri])
				}
				span[mask][ri] += o.Res.Makespan()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%d cells, %d verdicts differing from the all-off runtime, %d not surviving\n", cells, differing, failing)
	fmt.Fprintf(&b, "total makespan relative to DefaultConfig, by campaign rate:\n")
	fmt.Fprintf(&b, "| mechanisms on | all rates |")
	for _, r := range rates {
		fmt.Fprintf(&b, " %g |", r)
	}
	fmt.Fprintf(&b, "\n|---|---|%s\n", strings.Repeat("---|", len(rates)))
	total := func(xs []uint64) (s uint64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	for mask := 0; mask <= mechAll; mask++ {
		fmt.Fprintf(&b, "| %s | ×%.3f |", maskName(mask), float64(total(span[mask]))/float64(total(span[0])))
		for ri := range rates {
			fmt.Fprintf(&b, " ×%.3f |", float64(span[mask][ri])/float64(span[0][ri]))
		}
		fmt.Fprintln(&b)
	}
	t.Log("\n" + b.String())
}
