package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// determinism flags constructs that make a simulation run depend on
// anything but its configuration and seed:
//
//   - wall-clock reads (time.Now / time.Since / time.Until) anywhere in
//     the scanned tree except the service layer (wallClockExempt) — the
//     simulator has its own virtual clock;
//   - the global math/rand source (rand.Intn, rand.Seed, ...) anywhere —
//     all randomness must flow from an engine-seeded *rand.Rand;
//   - ranging over a map inside the deterministic core (internal/htm,
//     internal/mem, internal/backend/occ, internal/sched,
//     internal/oracle, internal/dsa), where iteration order leaks into
//     victim selection, validation order, node numbering, or report
//     emission. Order-insensitive loops carry a //staggervet:allow
//     determinism comment stating why.
var determinismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "flags wall-clock reads, the global math/rand source, and map iteration in the deterministic core",
	Run:  runDeterminism,
}

// mapRangeScope is the deterministic core: packages where map iteration
// order can change simulation results or emitted reports (internal/mem
// hosts the commit path's word-set table; internal/backend/occ is bound
// by package backend's "must not consult map iteration order" clause).
var mapRangeScope = map[string]bool{
	"internal/htm":         true,
	"internal/mem":         true,
	"internal/backend/occ": true,
	"internal/sched":       true,
	"internal/oracle":      true,
	"internal/dsa":         true,
}

// wallClockExempt is the service layer: the only packages permitted to
// read the wall clock. Deadlines, drain grace, and client polling and
// reconnect backoff are operational concerns of the daemon and its
// tools, and they time the host, not the simulation. Everything below
// this boundary — including the harness the daemon calls into —
// measures time only on the simulator's virtual clock, so the waiver is
// deliberately a scoped allow-list, not a per-call escape hatch.
var wallClockExempt = map[string]bool{
	"internal/service": true,
	"cmd/staggerd":     true,
	"cmd/staggerctl":   true,
}

// seededRandFuncs are the math/rand package-level functions that build
// explicitly seeded generators rather than using the global source.
var seededRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDeterminism(pass *Pass) {
	rel := pkgRel(pass.PkgPath)
	inScope := mapRangeScope[rel]
	wallOK := wallClockExempt[rel]
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				// Every qualified use (rand.Intn, time.Now) resolves
				// through its selector identifier, so inspecting idents
				// covers aliased and dot-imported uses alike.
				if obj := pass.Info.Uses[n]; obj != nil {
					checkDetObject(pass, n.Pos(), obj, wallOK)
				}
			case *ast.RangeStmt:
				if !inScope {
					return true
				}
				if tv, ok := pass.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(),
							"map iteration order is nondeterministic; sort the keys or annotate why order cannot matter")
					}
				}
			}
			return true
		})
	}
}

func checkDetObject(pass *Pass, pos token.Pos, obj types.Object, wallOK bool) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallOK {
			return // service layer: wall-clock deadlines are its job
		}
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(pos,
				"wall-clock read time.%s in the simulator; use the engine's virtual clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[fn.Name()] {
			pass.Reportf(pos,
				"global math/rand source (rand.%s) is not replay-safe; draw from an engine-seeded *rand.Rand", fn.Name())
		}
	}
}

// pkgRel strips the module prefix from an import path so scope tables
// can name packages module-independently ("internal/htm").
func pkgRel(path string) string {
	for _, marker := range []string{"internal/", "cmd/"} {
		if strings.HasPrefix(path, marker) {
			return path
		}
		if i := strings.Index(path, "/"+marker); i >= 0 {
			return path[i+1:]
		}
	}
	return path
}
