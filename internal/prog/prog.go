// Package prog defines the small typed intermediate representation (IR)
// on which the staggered-transactions compiler pass operates.
//
// Each benchmark declares the static shape of its atomic blocks in this
// IR: functions, basic blocks with control flow, and load/store sites
// with pointer provenance (which value a pointer was loaded through).
// The IR plays the role LLVM bitcode plays in the paper: it is what Data
// Structure Analysis (package dsa) and the anchor-table construction
// (package anchor) consume. Dynamic execution does not interpret the IR;
// workload Go code performs real accesses against the HTM simulator,
// attributing each access to its static Site.
package prog

import "fmt"

// ValueKind classifies abstract pointer values.
type ValueKind uint8

const (
	// ValParam is a function formal parameter.
	ValParam ValueKind = iota
	// ValGlobal is a module-level global pointer.
	ValGlobal
	// ValLoad is the result of loading a pointer field.
	ValLoad
	// ValCall is the pointer returned by a call.
	ValCall
	// ValField is a derived pointer into the same object (&p->f).
	ValField
	// ValPhi merges pointer values across control-flow joins (loop
	// induction pointers such as a list cursor).
	ValPhi
)

// Value is an abstract SSA-style pointer value. Values are what Data
// Structure Analysis reasons about: every load/store site names the Value
// its address is computed from.
type Value struct {
	ID   int
	Name string
	Kind ValueKind
	// Fn is the owning function; nil for globals.
	Fn *Func
	// Base is the value this one was derived from (ValLoad: the pointer
	// loaded through; ValField: the object pointer), nil otherwise.
	Base *Value
	// Field is the field name for ValLoad / ValField derivations.
	Field string
}

func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	return "%" + v.Name
}

// InstrKind classifies IR instructions.
type InstrKind uint8

const (
	// InstrAccess is a load or store (see Site).
	InstrAccess InstrKind = iota
	// InstrCall is a direct call to another function in the module.
	InstrCall
)

// Instr is one IR instruction.
type Instr struct {
	Kind   InstrKind
	PC     uint64 // assigned at Finalize
	Block  *Block
	Index  int // position within block
	Site   *Site
	Callee *Func
	Args   []*Value
	Result *Value // pointer returned by the call, if used
}

// Site is a static load or store instruction: the unit the compiler
// classifies as anchor or non-anchor and the unit the runtime attributes
// dynamic accesses to.
type Site struct {
	ID      uint32 // global static ID, 1-based; 0 means "no site"
	PC      uint64 // assigned at Finalize
	IsStore bool
	Fn      *Func
	Instr   *Instr

	// Ptr is the pointer operand: the value whose target object is
	// accessed. Field names the accessed field.
	Ptr   *Value
	Field string

	// Def is the pointer value produced, when this is a pointer load.
	Def *Value
	// StoredVal is the pointer value written, when this is a pointer
	// store.
	StoredVal *Value
}

func (s *Site) String() string {
	op := "load"
	if s.IsStore {
		op = "store"
	}
	return fmt.Sprintf("%s %s->%s @%s", op, s.Ptr, s.Field, s.Fn.Name)
}

// Block is a basic block.
type Block struct {
	Name   string
	Fn     *Func
	Index  int
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block

	// idom is the immediate dominator, computed at Finalize.
	idom *Block
	// rpo is the block's reverse-postorder number.
	rpo int
}

// Func is an IR function.
type Func struct {
	Name   string
	Mod    *Module
	Params []*Value
	Blocks []*Block
	Values []*Value
	Ret    *Value // pointer return value, if any

	// Calls lists this function's call instructions (filled as built).
	Calls []*Instr

	// PhiBinds records which values flow into each phi.
	PhiBinds []PhiBind

	entry *Block
}

// PhiBind states that value Val flows into phi value Phi.
type PhiBind struct {
	Phi *Value
	Val *Value
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.entry }

// Sites returns all load/store sites of the function in program order.
func (f *Func) Sites() []*Site {
	var out []*Site
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == InstrAccess {
				out = append(out, in.Site)
			}
		}
	}
	return out
}

// AtomicBlock is a static transaction: a source-level atomic region,
// represented by a dedicated root function whose body (including all
// transitively called functions) executes transactionally.
type AtomicBlock struct {
	ID   int
	Name string
	Root *Func
}

// Module is a compilation unit: the static program of one benchmark.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Value
	Atomics []*AtomicBlock

	// SiteByID maps static site IDs (1-based) to sites; filled by
	// Finalize. Index 0 is nil.
	SiteByID []*Site

	finalized bool
	nextValue int
}

// FuncByName returns the named function, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AtomicByName returns the named atomic block, or nil.
func (m *Module) AtomicByName(name string) *AtomicBlock {
	for _, ab := range m.Atomics {
		if ab.Name == name {
			return ab
		}
	}
	return nil
}

// NumSites returns the number of load/store sites in the module.
func (m *Module) NumSites() int {
	if len(m.SiteByID) == 0 {
		return 0
	}
	return len(m.SiteByID) - 1
}
