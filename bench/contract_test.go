package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

// The driver's limits on names and units.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK     = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from this package's tables")

// benchmarkFile is BENCHMARK.json, key for key.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []fileWorkload  `json:"workloads"`
	EndToEnd   []fileBounded   `json:"end_to_end"`
	PerLayer   []fileUnbounded `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileBounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type fileUnbounded struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
	}
	for _, w := range workloadDefs {
		f.Workloads = append(f.Workloads, fileWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, fileBounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, fileUnbounded{d.Name, d.Unit, d.Better})
	}
	return f
}

// TestBenchmarkJSON holds ../BENCHMARK.json to the tables the program
// emits from: a metric listed there and not emitted (or the reverse)
// would be refused by the driver before a single run.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("../BENCHMARK.json disagrees with metrics.go and main.go; run `go test -run TestBenchmarkJSON -update`\nwant:\n%s", want)
	}
}

// TestContractLimits checks the tables against the driver's stated
// limits on BENCHMARK.json.
func TestContractLimits(t *testing.T) {
	f := wantBenchmarkFile()
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !metricName.MatchString(s) {
			t.Errorf("name %q does not match %v", s, metricName)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	sawSetup := false
	for _, m := range f.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == lower
			for _, o := range f.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("end-to-end metrics need setup_s, in s, lower is better")
	}
	for _, m := range f.PerLayer {
		name(m.Name)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !unitOK.MatchString(d.Unit) {
				t.Errorf("%s: unit %q", d.Name, d.Unit)
			}
			if d.Better != lower && d.Better != higher {
				t.Errorf("%s: better %q", d.Name, d.Better)
			}
			if d.On == 0 {
				t.Errorf("%s applies to no workload", d.Name)
			}
		}
	}
	for _, d := range endToEnd {
		if d.On != onAll {
			t.Errorf("%s: the driver wants every end-to-end metric on every workload", d.Name)
		}
	}
}
