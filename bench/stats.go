package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples; 0 for an empty slice. The input is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n sorted
// samples. The small slack keeps 99.9 % of 10,000 at rank 9,990, which
// floating point would otherwise round up to 9,991.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the tail percentiles the harness is willing to
// report, lowest first.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// highestSupported returns the highest percentile of tailPercentiles that
// still has at least ten samples beyond it in a sample of size n, or 0
// when even the lowest has fewer: a tail read off fewer than ten samples
// is the maximum with a grander name.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n > 0 && n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func secondsAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

const mib = 1 << 20
