package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile estimated from fewer is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 for an empty
// slice). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the zero-based nearest-rank index of the p-th percentile of n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples that lie strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// tailPercentile picks the highest of the standard tail percentiles that
// keeps at least minBeyond samples beyond it, or 0 when n is too small for
// any of them.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 98, 95, 90, 80, 75} {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is a/b, or 0 when b is 0, so that a phase without samples never
// puts an infinity into the result line.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
