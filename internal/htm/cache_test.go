package htm

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func line(i int) mem.Addr { return mem.Addr(0x100000 + i*64) }

func TestL1HitAfterInsert(t *testing.T) {
	c := newL1(16, 4)
	if c.hit(line(1)) {
		t.Fatal("phantom hit")
	}
	if !c.insert(line(1), func(mem.Addr) bool { return false }) {
		t.Fatal("insert failed")
	}
	if !c.hit(line(1)) {
		t.Fatal("miss after insert")
	}
}

func TestL1LRUEviction(t *testing.T) {
	c := newL1(16, 4) // 4 sets x 4 ways
	nopin := func(mem.Addr) bool { return false }
	// Four lines mapping to the same set (stride = nsets*64).
	for i := 0; i < 4; i++ {
		c.insert(line(i*4), nopin)
	}
	// Touch line 0 to make it MRU, then insert a fifth: line(4) (the LRU)
	// must be the victim, line 0 must survive.
	if !c.hit(line(0)) {
		t.Fatal("expected hit")
	}
	c.insert(line(16), nopin)
	if !c.hit(line(0)) {
		t.Fatal("MRU line evicted")
	}
	if c.hit(line(4)) {
		t.Fatal("LRU line survived")
	}
}

func TestL1PinnedLinesSurvive(t *testing.T) {
	c := newL1(16, 4)
	pinned := map[mem.Addr]bool{line(0): true, line(4): true}
	pin := func(l mem.Addr) bool { return pinned[l] }
	for i := 0; i < 4; i++ {
		c.insert(line(i*4), pin)
	}
	// Insert two more: evictions must skip the pinned lines.
	c.insert(line(16), pin)
	c.insert(line(20), pin)
	if !c.hit(line(0)) || !c.hit(line(4)) {
		t.Fatal("pinned line evicted")
	}
}

func TestL1InsertFailsWhenAllPinned(t *testing.T) {
	c := newL1(16, 4)
	pin := func(mem.Addr) bool { return true }
	for i := 0; i < 4; i++ {
		if !c.insert(line(i*4), pin) {
			t.Fatal("insert into non-full set failed")
		}
	}
	if c.insert(line(16), pin) {
		t.Fatal("insert succeeded with all ways pinned")
	}
}

func TestL1Invalidate(t *testing.T) {
	c := newL1(16, 4)
	nopin := func(mem.Addr) bool { return false }
	c.insert(line(3), nopin)
	c.invalidate(line(3))
	if c.hit(line(3)) {
		t.Fatal("hit after invalidate")
	}
	c.invalidate(line(99)) // absent: must be a no-op
}

func TestL1Reset(t *testing.T) {
	c := newL1(16, 4)
	nopin := func(mem.Addr) bool { return false }
	for i := 0; i < 8; i++ {
		c.insert(line(i), nopin)
	}
	c.reset()
	for i := 0; i < 8; i++ {
		if c.hit(line(i)) {
			t.Fatal("hit after reset")
		}
	}
}

// TestL1CapacityProperty: a set never exceeds its way count and never
// holds a line twice, whatever the insertion sequence.
func TestL1CapacityProperty(t *testing.T) {
	f := func(seq []uint16) bool {
		c := newL1(64, 8)
		nopin := func(mem.Addr) bool { return false }
		for _, v := range seq {
			// Mirror the access path's contract: probe before insert.
			if l := mem.LineOf(mem.Addr(v) * 64); !c.hit(l) {
				c.insert(l, nopin)
			}
		}
		for idx := 0; idx < 8; idx++ {
			s, _ := c.set(mem.Addr(idx * 64))
			if len(s) > 8 {
				return false
			}
			seen := map[mem.Addr]bool{}
			for _, l := range s {
				if seen[l] || int(l/64)%8 != idx {
					return false // duplicate or misplaced entries
				}
				seen[l] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sliceL1 is the slice-of-slices cache the flat l1cache replaced, kept
// here as its reference model: one MRU-first slice per set, grown by
// append, shrunk by splicing.
type sliceL1 struct {
	sets    [][]mem.Addr
	setMask mem.Addr
	ways    int
}

func newSliceL1(lines, ways int) *sliceL1 {
	nsets := lines / ways
	return &sliceL1{sets: make([][]mem.Addr, nsets), setMask: mem.Addr(nsets - 1), ways: ways}
}

func (c *sliceL1) set(line mem.Addr) int { return int((line / mem.LineSize) & c.setMask) }

func (c *sliceL1) hit(line mem.Addr) bool {
	s := c.sets[c.set(line)]
	for i, l := range s {
		if l == line {
			copy(s[1:i+1], s[:i])
			s[0] = line
			return true
		}
	}
	return false
}

func (c *sliceL1) insert(line mem.Addr, pinned func(mem.Addr) bool) bool {
	idx := c.set(line)
	s := c.sets[idx]
	if len(s) < c.ways {
		s = append(s, 0)
		copy(s[1:], s)
		s[0] = line
		c.sets[idx] = s
		return true
	}
	for i := len(s) - 1; i >= 0; i-- {
		if !pinned(s[i]) {
			copy(s[1:i+1], s[:i])
			s[0] = line
			return true
		}
	}
	return false
}

func (c *sliceL1) invalidate(line mem.Addr) {
	idx := c.set(line)
	s := c.sets[idx]
	for i, l := range s {
		if l == line {
			c.sets[idx] = append(s[:i], s[i+1:]...)
			return
		}
	}
}

// TestL1MatchesSliceModel drives the flat cache and the slice model with
// the same random traces of probes, fills, invalidations and resets under
// a random pinned set, and requires the same answer from every call and
// the same MRU-first contents of the touched set afterwards — so the
// same hits, the same eviction victim, and the same overflow refusals.
func TestL1MatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ways := 1 << rng.Intn(4)            // 1..8
		nsets := 1 << rng.Intn(4)           // 1..8
		universe := nsets * ways * 3        // enough lines to overflow sets
		pinOneIn := []int{0, 2, 3}[trial%3] // 0 = nothing pinned
		got, want := newL1(nsets*ways, ways), newSliceL1(nsets*ways, ways)
		pins := map[mem.Addr]bool{}
		pinned := func(l mem.Addr) bool { return pins[l] }
		for step := 0; step < 400; step++ {
			l := line(rng.Intn(universe))
			if pinOneIn != 0 && rng.Intn(pinOneIn) == 0 {
				pins[l] = !pins[l]
			}
			switch op := rng.Intn(10); {
			case op < 7:
				g, w := got.hit(l), want.hit(l)
				if g != w {
					t.Fatalf("trial %d step %d: hit(%#x) = %v, model %v", trial, step, l, g, w)
				}
				if !g {
					if g, w := got.insert(l, pinned), want.insert(l, pinned); g != w {
						t.Fatalf("trial %d step %d: insert(%#x) = %v, model %v", trial, step, l, g, w)
					}
				}
			case op < 9:
				got.invalidate(l)
				want.invalidate(l)
			default:
				if rng.Intn(20) == 0 {
					got.reset()
					for i := range want.sets {
						want.sets[i] = want.sets[i][:0]
					}
				}
			}
			if g, _ := got.set(l); !slices.Equal(g, want.sets[want.set(l)]) {
				t.Fatalf("trial %d step %d: set of %#x holds %x, model %x",
					trial, step, l, g, want.sets[want.set(l)])
			}
		}
	}
}

func TestNewL1RejectsNonPowerOfTwoSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newL1(24, 4) // 6 sets
}

// TestDRAMChannelQueueing: back-to-back cold misses on the same channel
// must queue, making the second slower than an uncontended miss.
func TestDRAMChannelQueueing(t *testing.T) {
	cfg := smallConfig(2)
	m := New(cfg)
	// Two lines on the same channel: channel = (line/64) % 2, so lines
	// with even line-index share channel 0.
	a := mem.Addr(0x200000) // line index even
	b := mem.Addr(0x200080) // +2 lines: same channel
	var lat1, lat0 uint64
	m.Run([]func(*Core){
		func(c *Core) {
			t0 := c.Now()
			c.NTLoad(a)
			lat0 = c.Now() - t0
		},
		func(c *Core) {
			// Arrive just after core 0's miss begins.
			c.SpinWait(1, WaitBackoff)
			t0 := c.Now()
			c.NTLoad(b)
			lat1 = c.Now() - t0
		},
	})
	if lat0 != m.Config().MemLat {
		t.Fatalf("first miss latency = %d, want %d", lat0, m.Config().MemLat)
	}
	if lat1 <= lat0 {
		t.Fatalf("queued miss latency %d not above uncontended %d", lat1, lat0)
	}
}

// TestStoreInvalidatesRemoteCaches: after a remote store, re-reading the
// line costs more than an L1 hit.
func TestStoreInvalidatesRemoteCaches(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	var warm, afterInval uint64
	m.Run([]func(*Core){
		func(c *Core) {
			c.NTLoad(a) // warm the line
			t0 := c.Now()
			c.NTLoad(a)
			warm = c.Now() - t0
			c.SpinWait(1000, WaitBackoff) // let core 1 store
			t0 = c.Now()
			c.NTLoad(a)
			afterInval = c.Now() - t0
		},
		func(c *Core) {
			c.SpinWait(500, WaitBackoff)
			c.Store(0x10, 1, a, 42)
		},
	})
	if warm != m.Config().L1Lat {
		t.Fatalf("warm hit latency = %d, want %d", warm, m.Config().L1Lat)
	}
	if afterInval <= warm {
		t.Fatalf("post-invalidation latency %d not above L1 hit %d", afterInval, warm)
	}
}

// TestLoadBeforeTxBeginJoinsReadSet: a line the core loaded just before
// its transaction is still MRU in its L1 when the transaction loads it
// again, but that load must join the read set, so a peer's store to the
// line aborts the transaction.
func TestLoadBeforeTxBeginJoinsReadSet(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	var info AbortInfo
	var committed bool
	m.Run([]func(*Core){
		func(c *Core) {
			c.SpinWait(1, WaitBackoff) // let core 1 park at 500 first
			c.Load(0x10, 1, a)
			info, committed = c.tryTx(0xFFF0, func(c *Core) {
				c.Load(0x20, 2, a)
				c.SpinWait(1000, WaitBackoff) // core 1 stores meanwhile
			})
		},
		func(c *Core) {
			c.SpinWait(500, WaitBackoff)
			c.Store(0x30, 3, a, 42)
		},
	})
	if committed || info.Reason != AbortConflict || info.ByCore != 1 {
		t.Fatalf("committed = %v, abort %+v; want a conflict abort by core 1", committed, info)
	}
}

// TestStoreKeepsLoadLRUOrder: a store to another line of the same L1 set
// becomes MRU, so the next load of the first line must move it back in
// front; the LRU victim of the following fill is then the stored line.
func TestStoreKeepsLoadLRUOrder(t *testing.T) {
	cfg := smallConfig(1)
	cfg.L1Lines, cfg.L1Ways = 4, 2 // two sets of two ways
	m := New(cfg)
	stride := mem.Addr(2 * mem.LineSize) // next line of the same set
	x := m.Alloc.AllocLines(8)
	y, z := x+stride, x+2*stride
	var lat uint64
	m.Run([]func(*Core){func(c *Core) {
		c.Load(0x10, 1, x)
		c.Store(0x20, 2, y, 1) // set: y, x
		c.Load(0x10, 1, x)     // set: x, y
		c.Load(0x30, 3, z)     // evicts y; set: z, x
		t0 := c.Now()
		c.Load(0x10, 1, x)
		lat = c.Now() - t0
	}})
	if lat != cfg.L1Lat {
		t.Fatalf("reload latency = %d, want an L1 hit (%d): the LRU order missed a load", lat, cfg.L1Lat)
	}
}

// TestLazyTxLoadThenPlainLoadAbortsWriter: a lazy transaction's load
// leaves a peer's speculative write standing, so after the commit a
// plain load of the same line, still MRU and with no handoff between,
// must take the full path and abort the writer.
func TestLazyTxLoadThenPlainLoadAbortsWriter(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Lazy = true
	m := New(cfg)
	a := m.Alloc.AllocLines(1)
	var info AbortInfo
	var committed bool
	m.Run([]func(*Core){
		func(c *Core) {
			c.SpinWait(200, WaitBackoff) // core 1 writes a, then parks at ~1000
			c.TxBegin()
			c.Load(0x10, 1, a)
			c.TxCommit()
			c.Load(0x20, 2, a)
		},
		func(c *Core) {
			info, committed = c.tryTx(0xFFF0, func(c *Core) {
				c.Store(0x30, 3, a, 42)
				c.SpinWait(1000, WaitBackoff)
			})
		},
	})
	if committed || info.Reason != AbortConflict || info.ByCore != 0 {
		t.Fatalf("committed = %v, abort %+v; want a conflict abort by core 0", committed, info)
	}
}
