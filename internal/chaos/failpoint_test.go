package chaos

import (
	"strings"
	"testing"
)

func TestParseFailpointsGrammar(t *testing.T) {
	good := []string{
		"",
		"write=error@1",
		"sync:jobs.wal=crash@2",
		"write=short@1;sync=error@3",
		"create:objects=enospc@*",
		"truncate=error@1; remove=enospc@2 ;open=short@1",
	}
	for _, spec := range good {
		if _, err := ParseFailpoints(spec); err != nil {
			t.Errorf("ParseFailpoints(%q) = %v, want nil", spec, err)
		}
	}
	bad := map[string]string{
		"write":            "missing '='",
		"frobnicate=err@1": "unknown op",
		"write=explode@1":  "unknown failpoint action",
		"write=error":      "need '@n' or '@*'",
		"write=error%1":    "need '@n' or '@*'",
		"write=error@0":    "bad count",
		"write=error@x":    "bad count",
		"write=error@**":   "bad count",
	}
	for spec, frag := range bad {
		_, err := ParseFailpoints(spec)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("ParseFailpoints(%q) = %v, want error containing %q", spec, err, frag)
		}
	}
}

func TestFailpointNthFiresExactlyOnce(t *testing.T) {
	fp, err := ParseFailpoints("write:wal=error@3")
	if err != nil {
		t.Fatal(err)
	}
	var got []FPAction
	for i := 0; i < 6; i++ {
		got = append(got, fp.Eval("write", "/x/jobs.wal"))
	}
	want := []FPAction{FPNone, FPNone, FPError, FPNone, FPNone, FPNone}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: got %v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
	rep := fp.Report()
	if len(rep) != 1 || rep[0].Hits != 6 || rep[0].Fired != 1 {
		t.Fatalf("report = %+v, want 6 hits / 1 fired", rep)
	}
	if rep[0].Spec != "write:wal=error@3" {
		t.Fatalf("spec round-trip = %q", rep[0].Spec)
	}
}

func TestFailpointFiltersOpAndPath(t *testing.T) {
	fp, err := ParseFailpoints("sync:jobs.wal=crash@1")
	if err != nil {
		t.Fatal(err)
	}
	if a := fp.Eval("write", "/d/jobs.wal"); a != FPNone {
		t.Fatalf("wrong op fired: %v", a)
	}
	if a := fp.Eval("sync", "/d/objects/ab/cd"); a != FPNone {
		t.Fatalf("wrong path fired: %v", a)
	}
	if a := fp.Eval("sync", "/d/jobs.wal"); a != FPCrash {
		t.Fatalf("matching op+path: got %v, want FPCrash", a)
	}
}

// Multiple clauses watching one op must count hits independently, so a
// '@n' position cannot shift when another clause is added — the property
// that makes crash-harness specs stable.
func TestFailpointHitCountingIsPerClause(t *testing.T) {
	fp, err := ParseFailpoints("write=short@2;write=error@4")
	if err != nil {
		t.Fatal(err)
	}
	want := []FPAction{FPNone, FPShort, FPNone, FPError, FPNone}
	for i, w := range want {
		if a := fp.Eval("write", "f"); a != w {
			t.Fatalf("hit %d: got %v, want %v", i+1, a, w)
		}
	}
}

func TestFailpointEveryHitFires(t *testing.T) {
	fp, err := ParseFailpoints("write:objects=enospc@*")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if a := fp.Eval("write", "/d/objects/ab"); a != FPENOSPC {
			t.Fatalf("hit %d: got %v, want FPENOSPC", i, a)
		}
	}
	if a := fp.Eval("write", "/d/jobs.wal"); a != FPNone {
		t.Fatalf("non-matching path fired: %v", a)
	}
	rep := fp.Report()
	if len(rep) != 1 || rep[0].Hits != 5 || rep[0].Fired != 5 {
		t.Fatalf("report = %+v, want 5 hits / 5 fired", rep)
	}
	if rep[0].Spec != "write:objects=enospc@*" {
		t.Fatalf("spec round-trip = %q", rep[0].Spec)
	}
}

func TestFailpointsNilAndEmptyAreInert(t *testing.T) {
	var nilFP *Failpoints
	if a := nilFP.Eval("write", "f"); a != FPNone {
		t.Fatalf("nil registry injected %v", a)
	}
	if nilFP.Enabled() || nilFP.Report() != nil {
		t.Fatal("nil registry reports armed state")
	}
	empty, err := ParseFailpoints("  ")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Enabled() {
		t.Fatal("empty spec is armed")
	}
	if a := empty.Eval("sync", "f"); a != FPNone {
		t.Fatalf("empty registry injected %v", a)
	}
}
