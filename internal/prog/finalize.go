package prog

import "fmt"

// PCBase is the synthetic text-segment base address. Instructions are
// laid out 4 bytes apart in declaration order, so programs larger than
// 1024 instructions wrap the machine's 12-bit PC tag — the aliasing
// effect whose cost Table 3 of the paper quantifies as accuracy < 100%.
const PCBase uint64 = 0x400000

// InstrStride is the synthetic size of one instruction in bytes.
const InstrStride uint64 = 4

// Finalize freezes the module: it assigns program counters and site IDs,
// computes per-function dominator trees, and validates the call graph
// (direct recursion is rejected — the anchor pass inlines call trees).
// A module must be finalized before analyses run or sites are executed.
func (m *Module) Finalize() error {
	if m.finalized {
		return fmt.Errorf("prog: module %q finalized twice", m.Name)
	}
	pc := PCBase
	m.SiteByID = append(m.SiteByID, nil) // ID 0 = no site
	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("prog: function %q has no blocks", f.Name)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				in.PC = pc
				pc += InstrStride
				if in.Kind == InstrAccess {
					s := in.Site
					s.PC = in.PC
					s.ID = uint32(len(m.SiteByID))
					m.SiteByID = append(m.SiteByID, s)
				}
			}
		}
		computeDominators(f)
	}
	if err := m.checkAcyclic(); err != nil {
		return err
	}
	m.finalized = true
	return nil
}

// Finalized reports whether Finalize has run.
func (m *Module) Finalized() bool { return m.finalized }

// MustFinalize is Finalize for static program declarations that cannot
// legitimately fail at run time.
func (m *Module) MustFinalize() {
	if err := m.Finalize(); err != nil {
		panic(err)
	}
}

// checkAcyclic rejects recursive call graphs.
func (m *Module) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Func]int)
	var visit func(f *Func) error
	visit = func(f *Func) error {
		color[f] = gray
		for _, call := range f.Calls {
			switch color[call.Callee] {
			case gray:
				return fmt.Errorf("prog: recursive call cycle through %q", call.Callee.Name)
			case white:
				if err := visit(call.Callee); err != nil {
					return err
				}
			}
		}
		color[f] = black
		return nil
	}
	for _, f := range m.Funcs {
		if color[f] == white {
			if err := visit(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReachableFuncs returns root plus every transitively called function in
// deterministic preorder.
func ReachableFuncs(root *Func) []*Func {
	var out []*Func
	seen := make(map[*Func]bool)
	var walk func(f *Func)
	walk = func(f *Func) {
		if seen[f] {
			return
		}
		seen[f] = true
		out = append(out, f)
		for _, c := range f.Calls {
			walk(c.Callee)
		}
	}
	walk(root)
	return out
}
