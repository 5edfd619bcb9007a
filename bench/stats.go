package main

import "sort"

// median returns the median of xs (0 for an empty slice); xs is not
// reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(sorted(xs), p50)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentiles are named in per mille (p50 = 500, p99.9 = 999) so that
// ranks are whole-number arithmetic: "ten samples beyond p99.9 of 10,000"
// must not hinge on how 99.9 rounds in binary.
const (
	p50 = 500
	p95 = 950
)

// percentile returns a percentile of an ascending slice. The median
// interpolates between the two middle samples; every other percentile is
// nearest-rank, so a reported tail is always a latency some operation
// really had.
func percentile(asc []float64, permille int) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	if permille == p50 {
		if n%2 == 1 {
			return asc[n/2]
		}
		return (asc[n/2-1] + asc[n/2]) / 2
	}
	rank := (permille*n + 999) / 1000
	return asc[min(max(rank, 1), n)-1]
}

// tailCandidates are the tail percentiles a latency may be reported at.
var tailCandidates = []int{750, 900, p95, 990, 999}

// tailPercentile returns the highest candidate percentile that still has
// at least ten of n samples beyond it, or 0 when even p75 does not: a
// tail read off fewer than ten samples is an anecdote, not a percentile.
func tailPercentile(n int) int {
	best := 0
	for _, pm := range tailCandidates {
		if beyond := n * (1000 - pm) / 1000; beyond >= 10 {
			best = pm
		}
	}
	return best
}

// spread is (max-min)/median, the run's own noise figure.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	med := percentile(s, p50)
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / med
}
