package oracle

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
)

// brokenRig runs a two-core machine in which core 0 executes one atomic
// section irrevocably (forced by an explicit first-attempt abort) writing
// two far-apart words, while core 1 commits many small transactions that
// read both words. With earlyRelease the irrevocable fallback releases the
// global lock before its body runs, from its OnIrrevocable hook — the bug
// class the oracle exists to catch: core 1 can commit a half view (new
// first word, old second word).
func brokenRig(t *testing.T, earlyRelease bool) *Checker {
	t.Helper()
	cfg := htm.DefaultConfig()
	cfg.Cores = 2
	m := htm.New(cfg)
	a := m.Alloc.AllocLines(1)
	b := m.Alloc.AllocLines(1)
	sum := m.Alloc.AllocLines(1)

	chk := New(m.Mem.Snapshot(), nil)
	m.SetObserver(chk)

	writer := func(c *htm.Core) {
		opts := htm.DefaultAtomicOpts()
		opts.MaxRetries = 1
		var hooks htm.TxHooks
		if earlyRelease {
			hooks.OnIrrevocable = func() { c.NTStore(m.GlobalLock, 0) }
		}
		c.Atomic(opts, hooks, func(c *htm.Core) {
			if c.InTx() {
				c.TxAbortExplicit() // force the irrevocable fallback
			}
			c.Store(0x100, 1, a, 1)
			// A long pause between the two stores: readers run here.
			c.Compute(400_000)
			c.Store(0x104, 2, b, 1)
		})
	}
	reader := func(c *htm.Core) {
		for i := 0; i < 400; i++ {
			c.Atomic(htm.DefaultAtomicOpts(), htm.TxHooks{}, func(c *htm.Core) {
				x := c.Load(0x200, 3, a)
				y := c.Load(0x204, 4, b)
				c.Store(0x208, 5, sum, x+y)
			})
			c.Compute(50)
		}
	}
	m.Run([]func(*htm.Core){writer, reader})
	chk.FinalCheck(m.Mem)
	return chk
}

func TestCorrectIrrevocableValidates(t *testing.T) {
	chk := brokenRig(t, false)
	if err := chk.Err(); err != nil {
		t.Fatalf("correct protocol flagged: %v", err)
	}
	if chk.Commits() < 100 {
		t.Fatalf("only %d commits; rig not exercising the machine", chk.Commits())
	}
}

func TestEarlyReleaseCaught(t *testing.T) {
	chk := brokenRig(t, true)
	err := chk.Err()
	if err == nil {
		t.Fatal("early global-lock release produced no violation")
	}
	var v Violation
	if !errors.As(err, &v) {
		t.Fatalf("Err() = %v; want a wrapped Violation", err)
	}
	if v.Kind != ReadDivergence {
		t.Fatalf("first violation kind = %v, want %v (err: %v)", v.Kind, ReadDivergence, err)
	}
	if !strings.Contains(err.Error(), "read of word") {
		t.Fatalf("unexpected message: %v", err)
	}
}

// One commit whose two reads both diverge from the shadow reports both,
// in the order the section first read them (here against address order),
// and identically on every run. The shadow is made stale by stores the
// observer never hears of.
func TestDivergentReadsReportedInFirstReadOrder(t *testing.T) {
	var lo, hi mem.Addr
	run := func() []Violation {
		cfg := htm.DefaultConfig()
		cfg.Cores = 1
		m := htm.New(cfg)
		lo, hi = m.Alloc.AllocLines(1), m.Alloc.AllocLines(1)
		chk := New(m.Mem.Snapshot(), nil)
		m.Mem.Store(lo, 7)
		m.Mem.Store(hi, 9)
		m.SetObserver(chk)
		m.Run([]func(*htm.Core){func(c *htm.Core) {
			c.Atomic(htm.DefaultAtomicOpts(), htm.TxHooks{}, func(c *htm.Core) {
				c.Load(0x400, 8, hi)
				c.Load(0x404, 9, lo)
			})
		}})
		return chk.violations
	}
	got := run()
	want := []Violation{
		{Kind: ReadDivergence, Commit: 1, Word: hi, Got: 9, Want: 0},
		{Kind: ReadDivergence, Commit: 1, Word: lo, Got: 7, Want: 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("violations %+v, want %+v", got, want)
	}
	for i := 0; i < 20; i++ {
		if again := run(); !reflect.DeepEqual(again, got) {
			t.Fatalf("run %d reported %+v, first run %+v", i+2, again, got)
		}
	}
}

type countModel struct{ n uint64 }

type incTag struct{ newVal uint64 }

func (m *countModel) Step(tag any) error {
	it, ok := tag.(incTag)
	if !ok {
		return errors.New("bad tag type")
	}
	m.n++
	if it.newVal != m.n {
		return errors.New("counter skew")
	}
	return nil
}

func TestModelValidatesCommitOrder(t *testing.T) {
	cfg := htm.DefaultConfig()
	cfg.Cores = 4
	m := htm.New(cfg)
	ctr := m.Alloc.AllocLines(1)

	model := &countModel{}
	chk := New(m.Mem.Snapshot(), model)
	m.SetObserver(chk)

	bodies := make([]func(*htm.Core), 4)
	for i := range bodies {
		bodies[i] = func(c *htm.Core) {
			for k := 0; k < 50; k++ {
				c.Atomic(htm.DefaultAtomicOpts(), htm.TxHooks{}, func(c *htm.Core) {
					v := c.Load(0x300, 6, ctr)
					c.Store(0x304, 7, ctr, v+1)
					c.SetOpTag(incTag{newVal: v + 1})
				})
			}
		}
	}
	m.Run(bodies)
	chk.FinalCheck(m.Mem)
	if err := chk.Err(); err != nil {
		t.Fatalf("shared counter flagged: %v", err)
	}
	if model.n != 200 {
		t.Fatalf("model saw %d increments, want 200", model.n)
	}
	if got := m.Mem.Load(ctr); got != 200 {
		t.Fatalf("counter = %d, want 200", got)
	}
}

func TestModelDivergenceReported(t *testing.T) {
	chk := New(mem.New(), &countModel{})
	chk.OnCommit(0, false, incTag{newVal: 2}, nil, nil) // model expects 1
	var v Violation
	if err := chk.Err(); err == nil || !errors.As(err, &v) || v.Kind != ModelDivergence {
		t.Fatalf("want model divergence, got %v", chk.Err())
	}
}

func TestFinalDivergenceReported(t *testing.T) {
	real := mem.New()
	real.Store(0x1000, 42)
	chk := New(mem.New(), nil)
	chk.FinalCheck(real)
	var v Violation
	if err := chk.Err(); err == nil || !errors.As(err, &v) || v.Kind != FinalDivergence {
		t.Fatalf("want final divergence, got %v", chk.Err())
	}
	if v.Word != 0x1000 || v.Got != 42 || v.Want != 0 {
		t.Fatalf("divergence detail wrong: %+v", v)
	}
}
