package htm

import "repro/internal/mem"

// l1cache models a set-associative L1 data cache with LRU replacement.
// All sets live in one contiguous nsets*ways array of line addresses —
// set s occupies lines[s*ways : s*ways+count[s]], MRU first — so a
// lookup is a shift, a mask and a scan of at most `ways` adjacent words,
// with no per-set slice header to chase and no per-set growth. The array
// is allocated on the cache's first insert: a core that never runs a
// thread holds no L1 storage. Lines that belong to the owning core's
// speculative read/write set are pinned: evicting one would lose
// transactional tracking, so the insert fails and the core must take an
// overflow abort.
type l1cache struct {
	lines   []mem.Addr
	count   []uint8
	setMask mem.Addr
	ways    int
}

func newL1(lines, ways int) *l1cache {
	nsets := lines / ways
	if nsets&(nsets-1) != 0 {
		panic("htm: L1 set count must be a power of two")
	}
	if ways > 255 {
		panic("htm: L1 associativity must be below 256")
	}
	return &l1cache{setMask: mem.Addr(nsets - 1), ways: ways}
}

// set returns the ways of line's set that hold a line, MRU first (empty
// before the first insert), and the set's index.
func (c *l1cache) set(line mem.Addr) ([]mem.Addr, int) {
	idx := int((line / mem.LineSize) & c.setMask)
	if c.lines == nil {
		return nil, idx
	}
	base := idx * c.ways
	return c.lines[base : base+int(c.count[idx])], idx
}

// touch makes line the MRU entry of s, shifting s[:i] down one way over
// the slot at i.
func touch(s []mem.Addr, i int, line mem.Addr) {
	copy(s[1:i+1], s[:i])
	s[0] = line
}

// hit looks the line up and refreshes its LRU position.
func (c *l1cache) hit(line mem.Addr) bool {
	s, _ := c.set(line)
	if len(s) > 0 && s[0] == line {
		// Already MRU, nothing to move: the usual hit of a one-thread
		// cell, which would otherwise pay touch's copy call for it.
		return true
	}
	for i, l := range s {
		if l == line {
			touch(s, i, line)
			return true
		}
	}
	return false
}

// insert places the line at MRU, evicting the least recently used
// non-pinned line if the set is full. It returns false when every way
// holds a pinned line and the insertion is impossible.
func (c *l1cache) insert(line mem.Addr, pinned func(mem.Addr) bool) bool {
	if c.lines == nil {
		nsets := int(c.setMask) + 1
		c.lines = make([]mem.Addr, nsets*c.ways)
		c.count = make([]uint8, nsets)
	}
	s, idx := c.set(line)
	if len(s) < c.ways {
		c.count[idx]++
		s = s[:len(s)+1]
		touch(s, len(s)-1, line)
		return true
	}
	// Find the least recently used line that is not pinned.
	for i := len(s) - 1; i >= 0; i-- {
		if !pinned(s[i]) {
			touch(s, i, line)
			return true
		}
	}
	return false
}

// invalidate drops the line if present (remote store took ownership).
func (c *l1cache) invalidate(line mem.Addr) {
	s, idx := c.set(line)
	for i, l := range s {
		if l == line {
			copy(s[i:], s[i+1:])
			c.count[idx]--
			return
		}
	}
}

// reset discards all cached lines, keeping the array: stale entries
// beyond a set's count are never read.
func (c *l1cache) reset() {
	clear(c.count)
}
