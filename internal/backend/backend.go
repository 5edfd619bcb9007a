// Package backend defines the concurrency-control backend interface and
// registry: the contract a runtime must satisfy to execute the repo's
// workloads on the simulated machine, and the arena in which competing
// runtimes (plain HTM, staggered transactions, capacity-limited HTM,
// software OCC) are compared under identical workloads, serializability
// oracle, and metrics.
//
// A backend supplies one Thread per core, bound to it at creation. Its
// Atomic method runs an atomic-block body under the backend's concurrency
// control, and the body receives the Thread itself as its Ctx, reused for
// every instance, so an instance allocates nothing. The contract every
// backend must uphold:
//
//   - Atomicity. Each Atomic call executes its body as one atomic
//     operation: the body's Load/Store effects become visible to other
//     cores all at once, at a single serialization point, and the
//     observer (htm.TxObserver) sees exactly one OnCommit per instance
//     carrying the read and write sets at that point, as []mem.Word in
//     first-access order (a software backend keeps them in mem.WordSet,
//     like the core, and passes Words() through). This is what the
//     serializability oracle (internal/oracle) checks, so a backend
//     that cheats here fails every workload's oracle verdict.
//   - Re-execution. The body may run any number of times (speculative
//     retries, OCC validation failures); bodies are idempotent apart
//     from effects issued through the Ctx, per the usual TM contract.
//   - Determinism. All scheduling decisions must derive from simulated
//     state (core PRNGs, virtual time); a backend must not consult host
//     time, host randomness, or map iteration order. Identical configs
//     and seeds must produce identical simulations.
//   - Accounting. Commits, aborts, and useful/wasted cycle attribution
//     flow through htm.CoreStats (hardware transactions do this
//     natively; software backends use the Core's software-transaction
//     accounting calls), so internal/obs reports and the cross-backend
//     comparison table read every backend through one schema. The retry
//     budget and backoff policy are htm.AtomicOpts for every backend.
//
// Backends register themselves in an init function under a short name
// ("htm", "staggered", "limited", "occ"); harness, CLI flags, and
// staggerd job specs select them by that name, and the name is part of
// the result cache and journal key.
package backend

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/anchor"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// Ctx is the access context a backend hands to an atomic-block body. All
// transactional data accesses go through it, so each backend can layer
// its own instrumentation (advisory-lock ALPoints, OCC read-set
// logging) over the simulated access stream.
type Ctx interface {
	// Core returns the simulated core, for nontransactional side
	// channels (e.g. labyrinth's privatizing grid snapshot).
	Core() *htm.Core
	// Op attaches an opaque operation descriptor to the current
	// atomic-block instance for the serializability oracle. Without an
	// oracle the call does nothing, but a tag that is not already a
	// pointer is boxed into an interface before the call, so each tagged
	// op still heap-allocates its tag.
	Op(tag any)
	// Compute models n µ-ops of non-memory work inside the block.
	Compute(uops int)
	// Load performs the atomic-block load of site s at address a.
	Load(s *prog.Site, a mem.Addr) uint64
	// Store performs the atomic-block store of site s.
	Store(s *prog.Site, a mem.Addr, v uint64)
}

// Thread is a backend's execution context for one core. Each workload
// thread body obtains its own Thread and must not share it.
type Thread interface {
	// Atomic executes body as one instance of atomic block ab on the
	// thread's core, under the backend's concurrency control. The body
	// may be re-executed; see the package contract.
	Atomic(ab *prog.AtomicBlock, body func(Ctx))
}

// Runtime is one backend instance bound to one machine: a factory for
// per-thread contexts. Implementations may expose richer concrete APIs;
// the harness reaches those through capability type assertions.
type Runtime interface {
	// Thread returns the context bound to core tid, creating it on
	// first use.
	Thread(tid int) Thread
}

// Options carries the backend-neutral construction parameters the
// harness resolves from its run configuration. Backends read what they
// understand and ignore the rest.
type Options struct {
	// Capacity is the speculative line-capacity knob (0 = backend
	// default). The limited backend turns it into
	// htm.Config.MaxSpecLines; others ignore it.
	Capacity int
	// StaggerConfig is the advisory-lock runtime configuration the
	// harness always builds (mode, retry budget, backoff, hardening).
	// The HTM-family backends consume it wholesale; software backends
	// borrow only its RetryLoop() lowering to htm.AtomicOpts (budget and
	// backoff policy).
	StaggerConfig any
}

// Info describes one registered backend.
type Info struct {
	// Name is the registry key and CLI spelling.
	Name string
	// Summary is a one-line human description for listings.
	Summary string
	// Software marks backends that implement concurrency control
	// entirely in software: the harness runs them on the uninstrumented
	// baseline machine (no conflicting-PC hardware, no advisory-lock
	// anchor instrumentation).
	Software bool
	// PrepareMachine, if non-nil, adjusts the machine configuration
	// before the machine is built (e.g. the limited backend sets
	// MaxSpecLines). It runs after the harness applies its own
	// overrides.
	PrepareMachine func(cfg *htm.Config, opts Options)
	// New builds the backend's runtime on machine m. comp is the
	// anchor-compiler output for the workload module (nil only when the
	// harness could not compile, which it never is in practice).
	New func(m *htm.Machine, comp *anchor.Compiled, opts Options) (Runtime, error)
}

var registry = map[string]Info{}

// Register adds a backend under its Info.Name. It panics on a duplicate
// or empty name; backends register from init functions, so a collision
// is a programming error.
func Register(info Info) {
	if info.Name == "" {
		panic("backend: Register with empty name")
	}
	if info.New == nil {
		panic("backend: Register without a constructor: " + info.Name)
	}
	if _, dup := registry[info.Name]; dup {
		panic("backend: duplicate Register: " + info.Name)
	}
	registry[info.Name] = info
}

// Get resolves a backend by name. The error lists every registered
// backend, so CLI flag validation can surface the valid spellings
// directly.
func Get(name string) (Info, error) {
	if info, ok := registry[name]; ok {
		return info, nil
	}
	return Info{}, fmt.Errorf("unknown backend %q (registered backends: %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns the registered backend names in sorted order.
func Names() []string { return slices.Sorted(maps.Keys(registry)) }

// Summaries returns "name — summary" lines in sorted name order, for
// CLI usage text.
func Summaries() []string {
	lines := make([]string, 0, len(registry))
	for _, n := range Names() {
		lines = append(lines, n+" — "+registry[n].Summary)
	}
	return lines
}
