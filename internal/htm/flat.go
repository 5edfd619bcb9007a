package htm

import "repro/internal/mem"

// This file holds the flat, open-addressed hot-path tables the simulator
// consults per memory event: the per-line coherence directory and each
// core's speculative-set index. (The third flat table, the write buffer,
// is mem.WordSet: it lives in the leaf package because the same type
// carries read and write sets through the software backends to the
// observer.) Every structure here is engine-private, single-threaded
// under the token discipline, and sized in powers of two so a lookup is a
// multiply, a shift, and a short linear probe over one contiguous
// allocation — no hashing interface, no per-entry boxing, no map
// iteration order anywhere near simulated semantics.
//
// The same rule — index, don't search — shapes the three structures an
// event touches outside this file: each core's L1 is one nsets*ways line
// array with a per-set count (cache.go), the engine picks the next core
// by an unsigned minimum over one packed key per core (engine.go),
// and mem.Memory reaches a heap page through a directory indexed by page
// number.

// lineHash spreads cache-line addresses over a power-of-two table
// (Fibonacci hashing on the line number).
func lineHash(line mem.Addr, mask uint64) uint64 {
	return (uint64(line>>6) * 0x9E3779B97F4A7C15 >> 17) & mask
}

// lineEntry is the unified per-line coherence record: the transactional
// directory bits (readers/writers masks), each core's private-L2
// presence bit, and the shared-L3 presence bit. Folding all four maps
// the simulator previously kept per line (dir, per-core l2 ×N, l3) into
// one entry means a memory event resolves conflict detection and the
// whole cache hierarchy with a single lookup.
type lineEntry struct {
	line    mem.Addr // key; 0 = empty slot (line 0 is never allocated)
	readers uint32   // cores with the line in their tx read set
	writers uint32   // cores with the line in their tx write set
	l2mask  uint32   // cores with the line present in their private L2
	inL3    bool     // line present in the shared L3
}

// lineTable is an insert-only open-addressed table of lineEntry keyed by
// line address. Entries are never deleted (presence bits are cleared in
// place instead), so probing needs no tombstones. Pointers returned by
// get/lookup are invalidated by the next get — callers fetch the entry
// once per event and pass it down.
type lineTable struct {
	slots []lineEntry
	mask  uint64
	n     int
}

const lineTableMinSize = 1024

// reset empties the table at the size it has grown to, giving one that
// has no storage yet its minimum.
func (t *lineTable) reset() {
	if t.slots == nil {
		t.slots = make([]lineEntry, lineTableMinSize)
		t.mask = lineTableMinSize - 1
	} else {
		clear(t.slots)
	}
	t.n = 0
}

// lookup returns the entry for line, or nil if the line has never been
// seen.
func (t *lineTable) lookup(line mem.Addr) *lineEntry {
	for i := lineHash(line, t.mask); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.line == line {
			return s
		}
		if s.line == 0 {
			return nil
		}
	}
}

// get returns the entry for line, inserting a zero entry on first use.
func (t *lineTable) get(line mem.Addr) *lineEntry {
	for i := lineHash(line, t.mask); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.line == line {
			return s
		}
		if s.line == 0 {
			if t.n >= len(t.slots)*3/4 {
				t.grow()
				return t.get(line)
			}
			t.n++
			s.line = line
			return s
		}
	}
}

func (t *lineTable) grow() {
	old := t.slots
	t.slots = make([]lineEntry, len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	for i := range old {
		if old[i].line == 0 {
			continue
		}
		j := lineHash(old[i].line, t.mask)
		for t.slots[j].line != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = old[i]
	}
}

// txEnt is one line in a core's speculative set: the first transactional
// access's full PC and static site, plus whether the line has been
// written (the per-line tx bits and 12-bit PC tag of paper Section 4).
type txEnt struct {
	line  mem.Addr
	pc    uint64
	site  uint32
	wrote bool
}

// txTable is the core's speculative-set index: a dense insertion-ordered
// entry list (iterated by clearTx/stripDir/lazyResolve, so iteration
// order is deterministic by construction) plus an open-addressed index
// of int32 slot values (entry index + 1; 0 = empty). It is cleared per
// transaction with one memclr of the index and a truncation of the list.
type txTable struct {
	ents  []txEnt
	slots []int32
	mask  uint64
}

const txTableMinSize = 64

// reset empties the table, giving one that has no storage yet its
// minimum.
func (t *txTable) reset() {
	if t.slots == nil {
		t.ents = make([]txEnt, 0, txTableMinSize/2)
		t.slots = make([]int32, txTableMinSize)
		t.mask = txTableMinSize - 1
	} else {
		t.clear()
	}
}

// lookup returns the entry for line, or nil. The pointer is invalidated
// by the next add.
func (t *txTable) lookup(line mem.Addr) *txEnt {
	for i := lineHash(line, t.mask); ; i = (i + 1) & t.mask {
		k := t.slots[i]
		if k == 0 {
			return nil
		}
		if e := &t.ents[k-1]; e.line == line {
			return e
		}
	}
}

// add inserts a new entry; the caller has checked the line is absent.
func (t *txTable) add(line mem.Addr, pc uint64, site uint32, wrote bool) {
	if len(t.ents) >= len(t.slots)*3/4 {
		t.grow()
	}
	t.ents = append(t.ents, txEnt{line: line, pc: pc, site: site, wrote: wrote})
	i := lineHash(line, t.mask)
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = int32(len(t.ents))
}

func (t *txTable) grow() {
	t.slots = make([]int32, len(t.slots)*2)
	t.mask = uint64(len(t.slots) - 1)
	for k := range t.ents {
		i := lineHash(t.ents[k].line, t.mask)
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(k + 1)
	}
}

// clear resets the table for the next transaction.
func (t *txTable) clear() {
	t.ents = t.ents[:0]
	clear(t.slots)
}
