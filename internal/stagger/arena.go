package stagger

// This file registers the HTM-family backends in the concurrency-control
// arena (package backend): the plain best-effort HTM baseline, the full
// staggered-transactions runtime, and the capacity-limited HTM variant.
// All three are the same Runtime under different configurations; the
// software alternatives (e.g. internal/backend/occ) register separately.

import (
	"fmt"

	"repro/internal/anchor"
	"repro/internal/backend"
	"repro/internal/htm"
)

// DefaultLimitedCapacity is the speculative-line capacity the "limited"
// backend imposes when no explicit capacity is configured: 16 lines, a
// small dedicated transactional buffer in the spirit of early
// best-effort HTMs, far below the 1024-line L1 the paper models.
const DefaultLimitedCapacity = 16

func init() {
	for _, info := range []backend.Info{{
		Name:    "htm",
		Summary: "plain best-effort HTM: retry loop + irrevocable fallback, no advisory locks",
	}, {
		Name:    "staggered",
		Summary: "staggered transactions: advisory locks armed at compiler-selected anchors",
	}, {
		Name:    "limited",
		Summary: "capacity-limited HTM: speculative set bounded to -capacity lines (default 16)",
		PrepareMachine: func(cfg *htm.Config, opts backend.Options) {
			cfg.MaxSpecLines = opts.Capacity
			if cfg.MaxSpecLines == 0 {
				cfg.MaxSpecLines = DefaultLimitedCapacity
			}
		},
	}} {
		name := info.Name
		info.New = func(m *htm.Machine, comp *anchor.Compiled, opts backend.Options) (backend.Runtime, error) {
			return newArenaRuntime(name, m, comp, opts)
		}
		backend.Register(info)
	}
}

// ResolveMode maps a backend name and a requested runtime mode to the
// mode the backend actually runs. "htm" always runs the uninstrumented
// baseline; "staggered" upgrades a plain-HTM request to full staggered
// transactions but honors an explicit variant (AddrOnly, Staggered+SW);
// "limited" runs whatever mode was requested on the capacity-limited
// machine, so staggering can be evaluated as capacity shrinks. The
// harness applies this when it normalizes a cell, before building the
// machine, because the machine's conflicting-PC hardware depends on the
// resolved mode.
func ResolveMode(backendName string, m Mode) Mode {
	switch backendName {
	case "htm":
		return ModeHTM
	case "staggered":
		if m == ModeHTM {
			return ModeStaggeredHW
		}
		return m
	default:
		return m
	}
}

// newArenaRuntime builds the staggered-transactions Runtime from arena
// options: the harness hands the full stagger Config (with the mode
// already resolved via ResolveMode) through Options.StaggerConfig.
func newArenaRuntime(name string, m *htm.Machine, comp *anchor.Compiled, opts backend.Options) (backend.Runtime, error) {
	cfg, ok := opts.StaggerConfig.(Config)
	if !ok {
		return nil, fmt.Errorf("stagger: backend %q needs a stagger.Config in Options.StaggerConfig, got %T",
			name, opts.StaggerConfig)
	}
	cfg.Mode = ResolveMode(name, cfg.Mode)
	return New(m, comp, cfg).Backend(), nil
}
