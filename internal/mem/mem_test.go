package mem

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	m.Store(0x1000, 42)
	if got := m.Load(0x1000); got != 42 {
		t.Fatalf("Load(0x1000) = %d, want 42", got)
	}
}

func TestLoadDefaultZero(t *testing.T) {
	m := New()
	if got := m.Load(0xDEADBEE8); got != 0 {
		t.Fatalf("fresh memory Load = %d, want 0", got)
	}
}

func TestWordAlignmentIgnoresLowBits(t *testing.T) {
	m := New()
	m.Store(0x2003, 7) // unaligned store hits word 0x2000
	if got := m.Load(0x2000); got != 7 {
		t.Fatalf("Load(0x2000) = %d, want 7", got)
	}
	if got := m.Load(0x2007); got != 7 {
		t.Fatalf("Load(0x2007) = %d, want 7 (same word)", got)
	}
}

func TestAdjacentWordsIndependent(t *testing.T) {
	m := New()
	m.Store(0x3000, 1)
	m.Store(0x3008, 2)
	if m.Load(0x3000) != 1 || m.Load(0x3008) != 2 {
		t.Fatalf("adjacent words interfere: %d %d", m.Load(0x3000), m.Load(0x3008))
	}
}

func TestCrossPageBoundary(t *testing.T) {
	m := New()
	// Words straddling a 4 KB page boundary land on different pages.
	m.Store(0xFF8, 10)
	m.Store(0x1000, 20)
	if m.Load(0xFF8) != 10 || m.Load(0x1000) != 20 {
		t.Fatal("page boundary handling broken")
	}
}

func TestLineOf(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0},
		{63, 0},
		{64, 64},
		{0x12345, 0x12340},
	}
	for _, c := range cases {
		if got := LineOf(c.in); got != c.want {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestLineOfProperty(t *testing.T) {
	f := func(a uint64) bool {
		l := LineOf(Addr(a))
		return uint64(l)%LineSize == 0 && uint64(l) <= a && a-uint64(l) < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryStoreLoadProperty(t *testing.T) {
	m := New()
	f := func(a uint64, v uint64) bool {
		addr := Addr(a)
		m.Store(addr, v)
		return m.Load(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorBasics(t *testing.T) {
	al := NewAllocator(0x10000, 1<<20)
	a := al.AllocWords(4)
	b := al.AllocWords(4)
	if a == 0 || b == 0 {
		t.Fatal("allocator returned nil address")
	}
	if b < a+4*WordSize {
		t.Fatalf("allocations overlap: a=%#x b=%#x", a, b)
	}
}

func TestAllocatorLineAlignment(t *testing.T) {
	al := NewAllocator(0x10000, 1<<20)
	al.AllocWords(3) // misalign the bump pointer
	l := al.AllocLines(2)
	if uint64(l)%LineSize != 0 {
		t.Fatalf("AllocLines not line-aligned: %#x", l)
	}
}

func TestAllocatorObjectPolicy(t *testing.T) {
	al := NewAllocator(0x10000, 1<<20)
	al.AllocWords(1)
	big := al.AllocObject(8) // 64 bytes: must start a fresh line
	if uint64(big)%LineSize != 0 {
		t.Fatalf("large object not line-aligned: %#x", big)
	}
	small1 := al.AllocObject(2)
	small2 := al.AllocObject(2)
	if LineOf(small1) != LineOf(small2) {
		t.Fatal("small objects should pack into a line")
	}
}

func TestAllocatorNoOverlapProperty(t *testing.T) {
	al := NewAllocator(0x10000, 1<<22)
	type span struct{ lo, hi uint64 }
	var spans []span
	f := func(nWords uint8) bool {
		n := int(nWords%32) + 1
		a := al.AllocObject(n)
		lo, hi := uint64(a), uint64(a)+uint64(n)*WordSize
		for _, s := range spans {
			if lo < s.hi && s.lo < hi {
				return false
			}
		}
		spans = append(spans, span{lo, hi})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	al := NewAllocator(0x10000, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	al.AllocWords(1000)
}

func TestAllocatorUsedRemaining(t *testing.T) {
	al := NewAllocator(0x10000, 1<<12)
	al.AllocWords(8)
	if al.Used() != 64 {
		t.Fatalf("Used = %d, want 64", al.Used())
	}
	if al.Remaining() != (1<<12)-64 {
		t.Fatalf("Remaining = %d", al.Remaining())
	}
}

func TestNewAllocatorRejectsBadBase(t *testing.T) {
	for _, base := range []Addr{0, 7, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAllocator(%#x) should panic", base)
				}
			}()
			NewAllocator(base, 1024)
		}()
	}
}

// modelDiff is Diff over two word maps: the ascending word addresses at
// which they differ, absent words reading zero, capped at max.
func modelDiff(a, b map[Addr]uint64, max int) []Addr {
	var out []Addr
	for k, v := range a {
		if b[k] != v {
			out = append(out, k)
		}
	}
	for k, v := range b {
		if _, seen := a[k]; !seen && v != 0 {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// TestMemoryMatchesMapModel drives a Memory and a plain word map with the
// same random stores over the three address ranges a page lookup tells
// apart — a dense heap-like range the directory indexes, the directory's
// last pages, and far addresses only the page map can hold — and
// requires the same loads, a Snapshot that is a deep copy (later stores
// to either side do not show in the other), and the Diff the model
// predicts, including for pages one side reached only through its
// directory and the other never touched.
func TestMemoryMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randAddr := func() Addr {
		word := Addr(rng.Intn(3*pageWords)) * WordSize
		switch rng.Intn(4) {
		case 0:
			return (dirLimit-2)<<pageBits + word // straddles the directory's end
		case 1:
			return Addr(0xDEAD)<<32 + word // far outside any heap
		default:
			return 1<<20 + word // where DefaultConfig's heap starts
		}
	}
	m, model := New(), map[Addr]uint64{}
	store := func(m *Memory, model map[Addr]uint64, n int) {
		for i := 0; i < n; i++ {
			a, v := randAddr(), rng.Uint64()
			m.Store(a+Addr(rng.Intn(WordSize)), v) // low bits are ignored
			model[a] = v
		}
	}
	check := func(what string, m *Memory, model map[Addr]uint64) {
		t.Helper()
		for a, v := range model {
			if got := m.Load(a); got != v {
				t.Fatalf("%s: Load(%#x) = %d, model %d", what, a, got, v)
			}
		}
		for i := 0; i < 500; i++ {
			if a := randAddr(); m.Load(a) != model[a] {
				t.Fatalf("%s: Load(%#x) = %d, model %d", what, a, m.Load(a), model[a])
			}
		}
	}
	store(m, model, 2000)
	check("original", m, model)

	snap, snapModel := m.Snapshot(), maps.Clone(model)
	if d := m.Diff(snap, 10); len(d) != 0 {
		t.Fatalf("fresh snapshot differs at %v", d)
	}
	store(m, model, 300)
	store(snap, snapModel, 300)
	check("original after diverging", m, model)
	check("snapshot after diverging", snap, snapModel)
	for _, max := range []int{1, 7, 1 << 20} {
		if got, want := m.Diff(snap, max), modelDiff(model, snapModel, max); !slices.Equal(got, want) {
			t.Fatalf("Diff(max=%d) = %#x\nmodel          %#x", max, got, want)
		}
		if got, want := snap.Diff(m, max), modelDiff(snapModel, model, max); !slices.Equal(got, want) {
			t.Fatalf("reverse Diff(max=%d) = %#x\nmodel                  %#x", max, got, want)
		}
	}

	// A page reached only by a heap store — through the directory from
	// its first touch — is in the snapshot and in a Diff against a memory
	// that never saw it.
	one := New()
	one.Store(1<<20+8, 5)
	if got := one.Snapshot().Load(1<<20 + 8); got != 5 {
		t.Fatalf("snapshot lost a directory page: Load = %d, want 5", got)
	}
	if got := New().Diff(one, 4); !slices.Equal(got, []Addr{1<<20 + 8}) {
		t.Fatalf("Diff against an empty memory = %#x, want [0x100008]", got)
	}
}

// TestZeroAndCopyIntoReuseStorage: Zero leaves a memory that reads as a
// new one, CopyInto a destination that reads as a Snapshot — whatever the
// destination held, in pages the source has, lacks, or reaches only
// through the map — and neither allocates once the pages exist.
func TestZeroAndCopyIntoReuseStorage(t *testing.T) {
	const heap, far = Addr(1 << 20), Addr(0xDEAD) << 32
	src, dst := New(), New()
	src.Store(heap, 1)
	src.Store(far, 2)
	dst.Store(heap+8, 7)            // a word src leaves zero, in a page both have
	dst.Store(5*heap, 8)            // a directory page src does not have
	dst.Store(Addr(0xBEEF)<<32, 9)  // a far page src does not have
	src.Store(heap+2<<pageBits, 10) // a page dst does not have yet

	src.CopyInto(dst)
	if d := src.Diff(dst, 8); len(d) != 0 {
		t.Fatalf("after CopyInto the memories differ at %#x", d)
	}
	if got := dst.Load(heap + 2<<pageBits); got != 10 {
		t.Fatalf("CopyInto lost a page the destination lacked: Load = %d, want 10", got)
	}
	dst.Store(heap, 3)
	if src.Load(heap) != 1 {
		t.Fatal("CopyInto shares a page between source and destination")
	}
	if n := testing.AllocsPerRun(10, func() { src.CopyInto(dst) }); n != 0 {
		t.Fatalf("CopyInto into a destination that has the pages allocates %v times", n)
	}

	src.Zero()
	if d := src.Diff(New(), 8); len(d) != 0 {
		t.Fatalf("after Zero the memory still holds words at %#x", d)
	}
	if n := testing.AllocsPerRun(10, func() {
		src.Store(heap, 1)
		src.Store(far, 2)
		src.Zero()
	}); n != 0 {
		t.Fatalf("storing again where a zeroed memory has pages allocates %v times", n)
	}
	if src.Load(heap) != 0 || src.Load(far) != 0 {
		t.Fatal("Zero left a word")
	}
}

// TestAllocatorReset: after Reset the allocator repeats its addresses.
func TestAllocatorReset(t *testing.T) {
	al := NewAllocator(1<<20, 1<<16)
	seq := func() [3]Addr { return [3]Addr{al.AllocLines(1), al.AllocWords(3), al.AllocObject(5)} }
	first := seq()
	al.Reset()
	if al.Used() != 0 {
		t.Fatalf("Used() = %d after Reset", al.Used())
	}
	if again := seq(); again != first {
		t.Fatalf("allocations after Reset %#x, first time %#x", again, first)
	}
}
