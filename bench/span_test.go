package main

import (
	"reflect"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: rootSpan, Name: "cell", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: together they cover 10..50
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 120}, // outlives its parent: only 60..100 counts there
		{ID: 4, Parent: 1, Name: "d", Start: 12, End: 18},
	}
	want := []int64{
		100 - (40 + 40), // cell
		20 - 6,          // a, less d
		30,              // b
		60,              // c keeps its whole duration as self time
		6,               // d
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTotalsSumToRoot(t *testing.T) {
	tr := newTracer()
	cell := tr.begin("cell", "c1")
	a := tr.begin("a", "")
	time.Sleep(time.Millisecond)
	tr.end(a)
	b := tr.begin("b", "")
	inner := tr.begin("a", "")
	tr.end(inner)
	tr.end(b)
	tr.end(cell)
	tot := tr.totals()
	if tot["a"].Count != 2 || tot["cell"].Count != 1 {
		t.Fatalf("counts: %+v %+v", tot["a"], tot["cell"])
	}
	// Self times of a properly nested tree add up to the root's duration.
	var self int64
	for _, s := range tot {
		self += s.SelfNS
	}
	if self != tot["cell"].DurNS {
		t.Errorf("self times sum to %d, root lasted %d", self, tot["cell"].DurNS)
	}
	if g := tr.spans[inner].Group; g != "c1" {
		t.Errorf("a nested span's group = %q, want its root's", g)
	}
}

func TestAdoptNestsByTime(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.t0.Add(time.Duration(ns)) }
	tr.spans = []span{
		{ID: 0, Parent: rootSpan, Name: "job", Group: "j1", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "http.submit", Group: "j1", Start: 0, End: 30},
		{ID: 2, Parent: 0, Name: "job.wait", Group: "j1", Start: 30, End: 80},
		{ID: 3, Parent: 0, Name: "http.result", Group: "j1", Start: 80, End: 100},
	}
	tr.record("vfs.sync", at(10), at(12))   // inside submit
	tr.record("vfs.write", at(50), at(51))  // inside wait
	tr.record("vfs.sync", at(85), at(130))  // starts inside result
	tr.record("vfs.sync", at(100), at(105)) // after the job closed: nobody's child
	tr.record("vfs.open", at(-5), at(-1))   // before anything
	tr.record("vfs.rename", at(30), at(31)) // the instant wait opens and submit closes
	tr.adopt()
	wantParent := []int{1, 2, 3, rootSpan, rootSpan, 2}
	for i, want := range wantParent {
		s := tr.spans[4+i]
		if s.Parent != want {
			t.Errorf("%s at %d: parent %d, want %d", s.Name, s.Start, s.Parent, want)
		}
		if want != rootSpan && s.Group != "j1" {
			t.Errorf("%s at %d: group %q, want j1", s.Name, s.Start, s.Group)
		}
	}
	// A sync that outlives its parent is charged to the parent only up to
	// the parent's end.
	self := selfTimes(tr.spans)
	if self[3] != 20-15 {
		t.Errorf("http.result self = %d, want 5", self[3])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "g")
	tr.end(id)
	tr.record("y", time.Now(), time.Now())
	tr.adopt()
	if len(tr.totals()) != 0 {
		t.Error("a nil tracer reported spans")
	}
}
