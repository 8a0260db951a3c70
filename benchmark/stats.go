package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the value is one outlier's latency, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank) of samples, sorting them
// in place. ok is false when fewer than minBeyond samples lie beyond it.
func percentile(samples []int64, q float64) (v int64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	slices.Sort(samples)
	// Nearest rank ⌈q·n⌉, zero-based; the epsilon absorbs the rounding error
	// of products such as 0.99 × 1000.
	rank := min(max(int(math.Ceil(q*float64(n)-1e-9))-1, 0), n-1)
	return samples[rank], n-1-rank >= minBeyond
}

func meanOf(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += float64(s)
	}
	return sum / float64(len(samples))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance rule for a benchmark's spread is written in. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}
