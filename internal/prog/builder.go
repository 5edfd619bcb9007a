package prog

import "fmt"

// NewModule starts an empty module. Declare functions, blocks, and sites,
// then call Finalize before handing the module to analyses.
func NewModule(name string) *Module {
	return &Module{Name: name}
}

// Global declares a module-level global pointer (e.g. a shared table).
func (m *Module) Global(name string) *Value {
	m.checkOpen()
	v := &Value{ID: m.nextValue, Name: name, Kind: ValGlobal}
	m.nextValue++
	m.Globals = append(m.Globals, v)
	return v
}

// NewFunc declares a function with named pointer parameters. The entry
// block is created automatically.
func (m *Module) NewFunc(name string, params ...string) *Func {
	m.checkOpen()
	if m.FuncByName(name) != nil {
		panic(fmt.Sprintf("prog: duplicate function %q", name))
	}
	f := &Func{Name: name, Mod: m}
	for _, p := range params {
		f.Params = append(f.Params, f.newValue(p, ValParam, nil, ""))
	}
	f.entry = f.NewBlock("entry")
	m.Funcs = append(m.Funcs, f)
	return f
}

// Atomic declares an atomic block rooted at fn.
func (m *Module) Atomic(name string, fn *Func) *AtomicBlock {
	m.checkOpen()
	ab := &AtomicBlock{ID: len(m.Atomics) + 1, Name: name, Root: fn}
	m.Atomics = append(m.Atomics, ab)
	return ab
}

func (m *Module) checkOpen() {
	if m.finalized {
		panic("prog: module already finalized")
	}
}

func (f *Func) newValue(name string, kind ValueKind, base *Value, field string) *Value {
	v := &Value{ID: f.Mod.nextValue, Name: name, Kind: kind, Fn: f, Base: base, Field: field}
	f.Mod.nextValue++
	f.Values = append(f.Values, v)
	return v
}

// Param returns the i'th formal parameter.
func (f *Func) Param(i int) *Value { return f.Params[i] }

// NewBlock appends a basic block to the function.
func (f *Func) NewBlock(name string) *Block {
	f.Mod.checkOpen()
	b := &Block{Name: name, Fn: f, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// SetReturn marks v as the function's pointer return value.
func (f *Func) SetReturn(v *Value) { f.Ret = v }

// To adds a control-flow edge from b to each successor.
func (b *Block) To(succs ...*Block) {
	b.Fn.Mod.checkOpen()
	for _, s := range succs {
		if s.Fn != b.Fn {
			panic("prog: cross-function CFG edge")
		}
		b.Succs = append(b.Succs, s)
		s.Preds = append(s.Preds, b)
	}
}

func (b *Block) addAccess(isStore bool, ptr *Value, field string, def, stored *Value) *Site {
	b.Fn.Mod.checkOpen()
	if ptr == nil {
		panic("prog: access with nil pointer operand")
	}
	s := &Site{
		IsStore:   isStore,
		Fn:        b.Fn,
		Ptr:       ptr,
		Field:     field,
		Def:       def,
		StoredVal: stored,
	}
	in := &Instr{Kind: InstrAccess, Block: b, Index: len(b.Instrs), Site: s}
	s.Instr = in
	b.Instrs = append(b.Instrs, in)
	return s
}

// Load appends a scalar load of ptr->field and returns its site.
func (b *Block) Load(ptr *Value, field string) *Site {
	return b.addAccess(false, ptr, field, nil, nil)
}

// LoadPtr appends a pointer load: name = ptr->field. It returns the
// loaded pointer value and the site.
func (b *Block) LoadPtr(name string, ptr *Value, field string) (*Value, *Site) {
	def := b.Fn.newValue(name, ValLoad, ptr, field)
	s := b.addAccess(false, ptr, field, def, nil)
	return def, s
}

// Store appends a scalar store to ptr->field and returns its site.
func (b *Block) Store(ptr *Value, field string) *Site {
	return b.addAccess(true, ptr, field, nil, nil)
}

// StorePtr appends a pointer store ptr->field = val and returns its site.
func (b *Block) StorePtr(ptr *Value, field string, val *Value) *Site {
	return b.addAccess(true, ptr, field, nil, val)
}

// Field derives a pointer into the same object (&ptr->field) without a
// memory access, e.g. prevPtr = &listPtr->head.
func (b *Block) Field(name string, ptr *Value, field string) *Value {
	return b.Fn.newValue(name, ValField, ptr, field)
}

// Call appends a call to callee with the given pointer arguments. If the
// callee returns a pointer that the caller uses, name it via CallPtr.
func (b *Block) Call(callee *Func, args ...*Value) *Instr {
	b.Fn.Mod.checkOpen()
	if len(args) != len(callee.Params) {
		panic(fmt.Sprintf("prog: call to %s with %d args, want %d",
			callee.Name, len(args), len(callee.Params)))
	}
	in := &Instr{Kind: InstrCall, Block: b, Index: len(b.Instrs), Callee: callee, Args: args}
	b.Instrs = append(b.Instrs, in)
	b.Fn.Calls = append(b.Fn.Calls, in)
	return in
}

// Phi declares a pointer value merged from several sources (a loop
// cursor, for example). Bind the incoming values with Bind.
func (f *Func) Phi(name string) *Value {
	f.Mod.checkOpen()
	return f.newValue(name, ValPhi, nil, "")
}

// Bind records that val flows into phi.
func (f *Func) Bind(phi, val *Value) {
	f.Mod.checkOpen()
	if phi.Kind != ValPhi {
		panic("prog: Bind target is not a phi")
	}
	f.PhiBinds = append(f.PhiBinds, PhiBind{Phi: phi, Val: val})
}

// CallPtr appends a call whose pointer result the caller uses.
func (b *Block) CallPtr(name string, callee *Func, args ...*Value) (*Value, *Instr) {
	in := b.Call(callee, args...)
	v := b.Fn.newValue(name, ValCall, nil, "")
	in.Result = v
	return v, in
}
