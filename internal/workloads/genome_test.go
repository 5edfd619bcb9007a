package workloads

import (
	"strings"
	"testing"

	"repro/internal/htm"
	"repro/internal/simds"
)

// TestGenomeFinishNamesOneSegment corrupts two seeded segments: the
// oracle's final check must name the same one every time, not whichever
// map iteration happens to reach first.
func TestGenomeFinishNamesOneSegment(t *testing.T) {
	w := buildGenome()
	m := htm.New(htm.DefaultConfig())
	w.Setup(m, 1)
	md := w.RefModel(m, 1).(*genModel)
	d := simds.Direct(m)
	segs := make([]uint64, 0, 32)
	for s := uint64(1); s <= 32; s++ {
		segs = append(segs, s)
		md.ht.Insert(d, md.table, s, s, m.Alloc.AllocLines(1))
	}
	inserted := make([]bool, len(segs))
	for i := range inserted {
		inserted[i] = true
	}
	if err := md.Step(genOp{segs: segs, inserted: inserted}); err != nil {
		t.Fatal(err)
	}
	if err := md.Finish(); err != nil {
		t.Fatalf("clean table: %v", err)
	}
	for _, s := range []uint64{23, 7} { // overwrite in place: value != key
		md.ht.Insert(d, md.table, s, 1000+s, m.Alloc.AllocLines(1))
	}
	first := md.Finish()
	if first == nil || !strings.Contains(first.Error(), "table[7]") {
		t.Fatalf("Finish = %v, want the lower corrupted segment, 7", first)
	}
	for i := 0; i < 50; i++ {
		if err := md.Finish(); err == nil || err.Error() != first.Error() {
			t.Fatalf("Finish call %d = %v, first call said %v", i, err, first)
		}
	}
}
