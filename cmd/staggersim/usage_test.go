package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/stagger"
)

// TestUsageCoversEveryFlag pins the -h text to the actual flag surface:
// every defined flag must appear in exactly one usage group, and every
// group entry must name a real flag. This is what keeps the usage text
// from drifting as campaign flags accumulate.
func TestUsageCoversEveryFlag(t *testing.T) {
	fs := flag.NewFlagSet("staggersim", flag.ContinueOnError)
	defineFlags(fs)

	grouped := map[string]string{}
	for _, g := range flagGroups {
		for _, name := range g.names {
			if prev, dup := grouped[name]; dup {
				t.Errorf("flag -%s listed in both %q and %q", name, prev, g.title)
			}
			grouped[name] = g.title
			if fs.Lookup(name) == nil {
				t.Errorf("usage group %q lists -%s, which is not a defined flag", g.title, name)
			}
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if _, ok := grouped[f.Name]; !ok {
			t.Errorf("flag -%s is defined but missing from every usage group (add it to flagGroups)", f.Name)
		}
	})
}

// TestBackendFlagValidatesAtParseTime pins the -backend contract: a
// typo dies at flag parsing — before any simulation — with an error
// listing every registered backend, and each registered name parses.
func TestBackendFlagValidatesAtParseTime(t *testing.T) {
	parse := func(args ...string) (*opts, error) {
		fs := flag.NewFlagSet("staggersim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o := defineFlags(fs)
		return o, fs.Parse(args)
	}
	_, err := parse("-backend", "bogus")
	if err == nil {
		t.Fatal("unknown -backend accepted at parse time")
	}
	for _, name := range backend.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("parse error %q does not list registered backend %q", err, name)
		}
	}
	for _, name := range backend.Names() {
		o, err := parse("-backend", name)
		if err != nil {
			t.Fatalf("-backend %s rejected: %v", name, err)
		}
		if o.c.Backend != name {
			t.Fatalf("-backend %s parsed as %q", name, o.c.Backend)
		}
	}
}

// TestSubModesStartFromTheCell: the system named on the command line
// (-backend, -capacity) reaches the campaign's and the exploration's
// cells, not just the plain run's — they all derive from opts.cell.
func TestSubModesStartFromTheCell(t *testing.T) {
	fs := flag.NewFlagSet("staggersim", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse([]string{"-backend", "limited", "-capacity", "8", "-mode", "sw", "-bench", "kmeans, tsp"}); err != nil {
		t.Fatal(err)
	}
	base, err := o.cell()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := campaign(base, "0, 0.01")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(cs.Benchmarks, "|"); got != "kmeans|tsp" || len(cs.Rates) != 2 {
		t.Errorf("campaign sweeps benchmarks %q at rates %v", got, cs.Rates)
	}
	ec := harness.ExploreOf(base).RunConfig()
	for name, rc := range map[string]harness.RunConfig{"-chaos-campaign": cs.Cell, "-explore": ec} {
		if rc.Backend != "limited" || rc.Capacity != 8 || rc.Mode != stagger.ModeStaggeredSW {
			t.Errorf("%s runs backend %q capacity %d mode %s, want the command line's limited/8/Staggered+SW",
				name, rc.Backend, rc.Capacity, rc.Mode)
		}
	}
}

// TestGroupedUsageOutput checks the rendered help mentions each group
// title and each flag name once.
func TestGroupedUsageOutput(t *testing.T) {
	fs := flag.NewFlagSet("staggersim", flag.ContinueOnError)
	defineFlags(fs)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	groupedUsage(fs)
	help := buf.String()
	for _, g := range flagGroups {
		if !strings.Contains(help, g.title+":") {
			t.Errorf("usage output missing group %q", g.title)
		}
		for _, name := range g.names {
			if !strings.Contains(help, "-"+name) {
				t.Errorf("usage output missing flag -%s", name)
			}
		}
	}
}
