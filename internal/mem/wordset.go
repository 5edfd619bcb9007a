package mem

// Word is one word of simulated memory with its value: an entry of a
// WordSet, the unit in which read and write sets reach the observer.
type Word struct {
	Addr Addr
	Val  uint64
}

// WordSet is an insertion-ordered {word address → value} table: dense
// entries plus an open-addressed index of int32 slot values (entry
// index + 1; 0 = empty), sized in powers of two so a lookup is a
// multiply, a shift and a short linear probe. Iteration is in insertion
// order, deterministic by construction. The zero value is an empty set;
// a set reused through Reset allocates nothing once it has reached its
// working size. Not safe for concurrent use.
type WordSet struct {
	ents  []Word
	slots []int32
	mask  uint64
}

const wordSetMinSize = 64

func wordHash(a Addr, mask uint64) uint64 {
	return (uint64(a>>3) * 0x9E3779B97F4A7C15 >> 17) & mask
}

// Get returns the value held for word a, if any.
func (t *WordSet) Get(a Addr) (uint64, bool) {
	if len(t.ents) == 0 {
		return 0, false
	}
	for i := wordHash(a, t.mask); ; i = (i + 1) & t.mask {
		k := t.slots[i]
		if k == 0 {
			return 0, false
		}
		if e := &t.ents[k-1]; e.Addr == a {
			return e.Val, true
		}
	}
}

// Put sets word a to v. A word already present keeps its position in
// the insertion order.
func (t *WordSet) Put(a Addr, v uint64) {
	if len(t.ents) >= len(t.slots)*3/4 {
		t.grow()
	}
	for i := wordHash(a, t.mask); ; i = (i + 1) & t.mask {
		k := t.slots[i]
		if k == 0 {
			t.ents = append(t.ents, Word{Addr: a, Val: v})
			t.slots[i] = int32(len(t.ents))
			return
		}
		if e := &t.ents[k-1]; e.Addr == a {
			e.Val = v
			return
		}
	}
}

func (t *WordSet) grow() {
	n := max(2*len(t.slots), wordSetMinSize)
	if t.ents == nil {
		t.ents = make([]Word, 0, n/2)
	}
	t.slots = make([]int32, n)
	t.mask = uint64(n - 1)
	for k := range t.ents {
		i := wordHash(t.ents[k].Addr, t.mask)
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(k + 1)
	}
}

// Words returns the entries in insertion order. The slice is borrowed:
// it is valid until the next Put or Reset and must not be modified.
func (t *WordSet) Words() []Word { return t.ents }

// Reset empties the set, keeping its storage for reuse. A set that has
// none yet gets its minimum table here, so one that is Reset before each
// use never allocates for the first time in the middle of a run.
func (t *WordSet) Reset() {
	switch {
	case t.slots == nil:
		t.grow()
	case len(t.ents) != 0:
		t.ents = t.ents[:0]
		clear(t.slots)
	}
}
