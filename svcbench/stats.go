package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the least number of samples that must lie above a
// reported percentile: a tail percentile resting on fewer samples is
// noise, so percentile refuses it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <
// 100): the value at sorted index ceil(p/100*n)-1. It refuses the
// request when fewer than minBeyond samples lie above that index.
func percentile(xs []float64, p float64) (float64, error) {
	idx, err := percentileIndex(len(xs), p)
	if err != nil {
		return 0, err
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// percentileIndex returns the sorted index percentile reads for n
// samples, or an error when the percentile lacks minBeyond samples
// above it.
func percentileIndex(n int, p float64) (int, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it, want >= %d", p, n, beyond, minBeyond)
	}
	return idx, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// classAt reports which stratification class a sorted rank falls in,
// given the classes' sizes in expected-latency order, and the rank's
// distance to the nearest class boundary.
func classAt(sizes []int, rank int) (class, margin int) {
	start := 0
	for i, n := range sizes {
		if rank < start+n {
			return i, min(rank-start, start+n-1-rank)
		}
		start += n
	}
	return -1, 0
}
