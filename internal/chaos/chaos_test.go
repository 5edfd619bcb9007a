package chaos

import (
	"testing"

	"repro/internal/htm"
)

// TestDeterministicStreams: two injectors with the same rate and seed must answer
// an identical query sequence identically, and a different seed must
// (for this sequence) diverge.
func TestDeterministicStreams(t *testing.T) {
	a := NewInjector(0.05, 7, 4)
	b := NewInjector(0.05, 7, 4)
	c := NewInjector(0.05, 8, 4)
	diverged := false
	for i := 0; i < 4000; i++ {
		core := i % 4
		ra, oka := a.SpuriousAbort(core)
		rb, okb := b.SpuriousAbort(core)
		if ra != rb || oka != okb {
			t.Fatalf("query %d: same-seed injectors diverged", i)
		}
		if a.NTDelay(core) != b.NTDelay(core) {
			t.Fatalf("query %d: NTDelay diverged", i)
		}
		if a.StallJitter(core) != b.StallJitter(core) {
			t.Fatalf("query %d: StallJitter diverged", i)
		}
		if a.DropLockRelease(core) != b.DropLockRelease(core) {
			t.Fatalf("query %d: DropLockRelease diverged", i)
		}
		_, okc := c.SpuriousAbort(core)
		c.NTDelay(core)
		c.StallJitter(core)
		c.DropLockRelease(core)
		if okc != oka {
			diverged = true
		}
	}
	if a.Counts != b.Counts {
		t.Fatalf("same-seed counts differ: %+v vs %+v", a.Counts, b.Counts)
	}
	if a.Counts.Total() == 0 {
		t.Fatal("rate 0.05 over 16k draws fired nothing")
	}
	if !diverged {
		t.Error("different seeds produced identical abort schedules")
	}
}

// TestRateExtremes: rate 0 never fires (and does not advance counts);
// rate 1 always fires, and an injected abort is always a spurious one.
func TestRateExtremes(t *testing.T) {
	never := NewInjector(0, 3, 1)
	always := NewInjector(1, 3, 1)
	for i := 0; i < 100; i++ {
		if _, ok := never.SpuriousAbort(0); ok {
			t.Fatal("rate-0 injector fired an abort")
		}
		if never.NTDelay(0) != 0 || never.StallJitter(0) != 0 || never.DropLockRelease(0) {
			t.Fatal("rate-0 injector fired")
		}
		if r, ok := always.SpuriousAbort(0); !ok || r != htm.AbortSpurious {
			t.Fatalf("rate-1 injector delivered (%v, %v), want a spurious abort", r, ok)
		}
		if always.NTDelay(0) != NTDelayCycles || always.StallJitter(0) != JitterCycles || !always.DropLockRelease(0) {
			t.Fatal("rate-1 injector skipped")
		}
	}
	if got := never.Counts.Total(); got != 0 {
		t.Fatalf("rate-0 counts = %d", got)
	}
	want := Counts{Aborts: 100, NTDelays: 100, LockDrops: 100, Jitters: 100}
	if got := always.Counts; got != want {
		t.Fatalf("rate-1 counts = %+v, want %+v", got, want)
	}
}

// TestPerCoreStreamsIndependent: one core's query volume must not shift
// another core's schedule (each core has its own stream).
func TestPerCoreStreamsIndependent(t *testing.T) {
	a := NewInjector(0.2, 11, 2)
	b := NewInjector(0.2, 11, 2)
	// Burn 1000 extra draws on core 0 of a only.
	for i := 0; i < 1000; i++ {
		a.SpuriousAbort(0)
	}
	for i := 0; i < 200; i++ {
		_, oka := a.SpuriousAbort(1)
		_, okb := b.SpuriousAbort(1)
		if oka != okb {
			t.Fatalf("draw %d: core-1 schedule shifted by core-0 traffic", i)
		}
	}
}
