package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: with fewer, the value is a handful of outliers, not a tail.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of values. It
// refuses when fewer than minTail samples lie beyond it, so p95 needs at
// least 200 samples.
func percentile(values []float64, p float64) (float64, error) {
	n := len(values)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; n == 0 || beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, max(n-1-idx, 0), minTail)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return sorted[idx], nil
}

func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
