package simds

import (
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// TestDirectIsUntimed seeds a B+ tree and a queue through Direct on a
// fresh machine: the contents land in memory, and no core's clock,
// statistics or L1 shows the traffic.
func TestDirectIsUntimed(t *testing.T) {
	mod := prog.NewModule("t")
	bt := DeclareBPTree(mod)
	q := DeclareQueue(mod)
	mod.MustFinalize()
	cfg := htm.DefaultConfig()
	cfg.Cores = 4
	mach := htm.New(cfg)

	d := Direct(mach)
	tree := NewBPTree(mach)
	const keys = 100 // enough splits for a two-level tree
	for i := 0; i < keys; i++ {
		bt.Insert(d, tree, uint64(i*37%keys), mach.Alloc.AllocLines)
	}
	qa := NewQueue(mach.Alloc)
	for v := uint64(1); v <= 10; v++ {
		q.Push(d, qa, v, mach.Alloc.AllocLines(1))
	}

	if n := BPTCount(mach, tree); n != keys {
		t.Errorf("BPTCount = %d, want %d", n, keys)
	}
	if h := mach.Mem.Load(tree + w(bptHeightOff)); h < 2 {
		t.Errorf("tree height %d, want the inserts to have split internal nodes", h)
	}
	if n := QueueLen(mach, qa); n != 10 {
		t.Errorf("QueueLen = %d, want 10", n)
	}
	for i := 0; i < cfg.Cores; i++ {
		c := mach.Core(i)
		if c.Now() != 0 || *c.Stats() != (htm.CoreStats{}) {
			t.Fatalf("core %d: clock %d, stats %+v after Direct setup; want both zero",
				i, c.Now(), *c.Stats())
		}
	}

	// Every core's first load of a seeded line misses its L1, and the
	// timed path reads what Direct wrote.
	head := mem.Addr(mach.Mem.Load(qa + w(qHeadOff)))
	probes := []struct {
		a    mem.Addr
		want uint64
	}{{tree + w(bptHeightOff), mach.Mem.Load(tree + w(bptHeightOff))}, {head + w(qValOff), 1}}
	bodies := make([]func(*htm.Core), cfg.Cores)
	for i := range bodies {
		bodies[i] = func(c *htm.Core) {
			for _, p := range probes {
				if got := c.NTLoad(p.a); got != p.want {
					t.Errorf("core %d: NTLoad(%#x) = %d, want %d", c.ID(), p.a, got, p.want)
				}
			}
		}
	}
	mach.Run(bodies)
	for i := 0; i < cfg.Cores; i++ {
		if h := mach.Core(i).Stats().L1Hits; h != 0 {
			t.Errorf("core %d: %d L1 hits on its first loads of seeded lines; Direct left lines in its L1", i, h)
		}
	}
}

// TestDirectHasNoCore pins the documented limit: an operation that
// reaches the core cannot run through Direct.
func TestDirectHasNoCore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Direct(m).Core() returned; want a panic")
		}
	}()
	Direct(htm.New(htm.DefaultConfig())).Core()
}
