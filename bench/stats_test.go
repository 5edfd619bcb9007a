package main

import (
	"reflect"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n, want int
	}{
		{0, 0}, {39, 0}, {40, 750}, {99, 750}, {100, 900}, {199, 900}, {200, 950},
		{999, 950}, {1000, 990}, {2500, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p    int
		want float64
	}{
		{p50, 50.5}, {750, 75}, {900, 90}, {p95, 95}, {990, 99}, {999, 100},
	} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Ten samples lie beyond the tail that tailPercentile picked.
	if p := tailPercentile(len(asc)); percentile(asc, p) != 90 {
		t.Errorf("tail of 100 samples = p%v = %v, want p90 = 90", p, percentile(asc, p))
	}
	if got := percentile([]float64{7}, 990); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := spread([]float64{9, 10, 11}); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, tc := range []struct{ in, want []string }{
		{[]string{"--workload", "paper", "--seed", "7", "--seconds", "10", "--trace", "0"},
			[]string{"--workload", "paper", "--seed", "7", "--seconds", "10", "--trace=0"}},
		{[]string{"-trace", "1", "-workload", "paper"}, []string{"-trace=1", "-workload", "paper"}},
		{[]string{"-workload", "paper", "-trace"}, []string{"-workload", "paper", "-trace"}},
		{[]string{"-trace", "-smoke"}, []string{"-trace", "-smoke"}},
	} {
		if got := normalizeArgs(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
