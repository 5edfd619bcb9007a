// Package mem provides the simulated word-addressable shared memory that
// the HTM simulator and all workload data structures are built on, and
// the word-set table in which transactions carry it.
//
// Addresses are byte addresses, but all accesses are performed at 8-byte
// word granularity (the low three bits of an access address are ignored).
// The cache-line size is fixed at 64 bytes to match the simulated machine,
// so a line holds eight words. Memory is sparse — 4 KB pages owned by a
// map — with a directory indexed by page number in front of it for the
// low range heaps are bump-allocated in, so an access to heap data never
// hashes.
//
// WordSet is the one {word → value} table on the commit path: the core's
// write buffer and observer logs and the software backends' read and
// write sets, which reach the observer as []Word, untranslated. It lives
// in this leaf package so that the oracle keeps importing nothing else.
package mem

import "slices"

// Addr is a byte address in simulated memory.
type Addr uint64

// LineSize is the cache-line size of the simulated machine in bytes.
const LineSize = 64

// WordSize is the access granularity in bytes.
const WordSize = 8

// LineOf returns the address of the cache line containing a.
func LineOf(a Addr) Addr { return a &^ (LineSize - 1) }

// WordOf returns the word-aligned address containing a.
func WordOf(a Addr) Addr { return a &^ (WordSize - 1) }

// pageBits selects the simulated page size (2^pageBits bytes). Pages keep
// the backing store compact without hashing every access.
const pageBits = 12

const pageWords = 1 << (pageBits - 3)

type page [pageWords]uint64

// dirLimit bounds the page directory: page numbers below it (the first
// 512 MB of the address space, which holds any heap a bump Allocator is
// given in practice) are indexed, the rest are found through the map.
const dirLimit = 1 << 17

// Memory is a sparse simulated physical memory. It is not safe for
// concurrent use; the simulation engine serializes all accesses.
type Memory struct {
	// pages owns every page that has been stored to, keyed by page
	// number: Snapshot and Diff walk it, and it is how a page outside the
	// directory is found.
	pages map[Addr]*page
	// dir is the page directory: dir[k] == pages[k] for every page number
	// k < len(dir), and no page numbered in [len(dir), dirLimit) exists —
	// creating one grows the directory over it (by doubling, up to
	// dirLimit entries). Heaps are bump-allocated upward from a low base,
	// so the pages a run touches are a dense low range and a load or
	// store reaches its page by one indexed read, however many cores
	// interleave their accesses.
	dir []*page
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[Addr]*page)}
}

// find returns the page holding a, nil if nothing was ever stored there.
// It makes no call on the directory path, so Load inlines whole into the
// simulator's access paths.
func (m *Memory) find(a Addr) *page {
	key := a >> pageBits
	if key < Addr(len(m.dir)) {
		return m.dir[key]
	}
	return m.pages[key]
}

// newPage creates the page numbered key, growing the directory to cover
// it when it is below dirLimit.
func (m *Memory) newPage(key Addr) *page {
	p := new(page)
	m.pages[key] = p
	if key < dirLimit {
		if n := Addr(len(m.dir)); key >= n {
			n = max(n, 256)
			for n <= key {
				n *= 2
			}
			m.dir = append(m.dir, make([]*page, n-Addr(len(m.dir)))...)
		}
		m.dir[key] = p
	}
	return p
}

// Load returns the word stored at a (word-aligned); memory never stored
// to reads zero.
func (m *Memory) Load(a Addr) uint64 {
	if p := m.find(a); p != nil {
		return p[(a>>3)&(pageWords-1)]
	}
	return 0
}

// Store writes the word v at a (word-aligned).
func (m *Memory) Store(a Addr, v uint64) {
	p := m.find(a)
	if p == nil {
		p = m.newPage(a >> pageBits)
	}
	p[(a>>3)&(pageWords-1)] = v
}

// Snapshot returns an independent deep copy of the memory's current
// contents. Oracles snapshot the post-setup state and replay committed
// effects against the copy.
func (m *Memory) Snapshot() *Memory {
	s := &Memory{pages: make(map[Addr]*page, len(m.pages)), dir: make([]*page, len(m.dir))}
	for key, p := range m.pages {
		cp := *p
		s.pages[key] = &cp
		if key < Addr(len(s.dir)) {
			s.dir[key] = &cp
		}
	}
	return s
}

// Zero clears every word in place: the memory reads as a new one does
// and keeps its pages and directory, so storing to the same addresses
// again allocates nothing.
func (m *Memory) Zero() {
	for _, p := range m.pages {
		*p = page{}
	}
}

// CopyInto makes dst's contents equal to m's, as Snapshot's result is,
// in the pages dst already owns; only a page dst lacks is allocated.
func (m *Memory) CopyInto(dst *Memory) {
	dst.Zero()
	for key, p := range m.pages {
		dp := dst.pages[key]
		if dp == nil {
			dp = dst.newPage(key)
		}
		*dp = *p
	}
}

// Diff returns up to max word addresses at which m and o hold different
// values, in ascending order. Untouched pages compare as all-zero.
func (m *Memory) Diff(o *Memory, max int) []Addr {
	ordered := make([]Addr, 0, len(m.pages)+len(o.pages))
	for k := range m.pages {
		ordered = append(ordered, k)
	}
	for k := range o.pages {
		if m.pages[k] == nil {
			ordered = append(ordered, k)
		}
	}
	slices.Sort(ordered)
	var zero page
	var out []Addr
	for _, k := range ordered {
		a, b := m.pages[k], o.pages[k]
		if a == nil {
			a = &zero
		}
		if b == nil {
			b = &zero
		}
		for w := 0; w < pageWords; w++ {
			if a[w] != b[w] {
				out = append(out, k<<pageBits|Addr(w*WordSize))
				if len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}

// Allocator is a bump-pointer allocator over a region of simulated memory.
// Allocations never overlap and are never freed; workloads are sized so
// that this is not a limitation. The zero Addr is reserved as a nil
// pointer, so the allocator never returns it.
type Allocator struct {
	base Addr
	next Addr
	end  Addr
}

// NewAllocator returns an allocator handing out addresses in [base, base+size).
// base must be nonzero and line-aligned.
func NewAllocator(base Addr, size uint64) *Allocator {
	if base == 0 || base%LineSize != 0 {
		panic("mem: allocator base must be nonzero and line-aligned")
	}
	return &Allocator{base: base, next: base, end: base + Addr(size)}
}

// Alloc returns the address of a fresh region of at least size bytes with
// the given alignment (which must be a power of two, at least WordSize).
func (al *Allocator) Alloc(size uint64, align uint64) Addr {
	if align < WordSize || align&(align-1) != 0 {
		panic("mem: bad alignment")
	}
	a := (al.next + Addr(align) - 1) &^ Addr(align-1)
	if a+Addr(size) > al.end {
		panic("mem: allocator out of space")
	}
	al.next = a + Addr(size)
	return a
}

// AllocWords allocates n consecutive words, word-aligned.
func (al *Allocator) AllocWords(n int) Addr {
	return al.Alloc(uint64(n)*WordSize, WordSize)
}

// AllocLines allocates n consecutive cache lines, line-aligned. Use this
// for objects that must not falsely share a line with their neighbours.
func (al *Allocator) AllocLines(n int) Addr {
	return al.Alloc(uint64(n)*LineSize, LineSize)
}

// AllocObject allocates an object of n words, line-aligned if it would
// otherwise straddle a cache line that a sibling allocation shares. It
// mimics a real allocator's size-class behaviour: small objects pack,
// larger objects start on a fresh line.
func (al *Allocator) AllocObject(nWords int) Addr {
	size := uint64(nWords) * WordSize
	if size >= LineSize/2 {
		return al.Alloc(size, LineSize)
	}
	return al.Alloc(size, WordSize)
}

// Reset rewinds the allocator to its base: the next allocations repeat
// the addresses of the first ones.
func (al *Allocator) Reset() { al.next = al.base }

// Used reports the number of bytes handed out so far.
func (al *Allocator) Used() uint64 { return uint64(al.next - al.base) }

// Remaining reports the number of bytes still available.
func (al *Allocator) Remaining() uint64 { return uint64(al.end - al.next) }
