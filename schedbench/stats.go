package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the exclusive method of Python's statistics.quantiles(xs, n=4),
// so the benchmark's own spread figures match the ones computed over its
// output. xs needs at least two values; it is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the median of xs (the mean of the middle two for an
// even count); NaN when xs is empty.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// lowerQuartile and upperQuartile are the first and third quartiles of
// xs, as quartiles gives them.
func lowerQuartile(xs []float64) float64 {
	q1, _, _ := quartiles(xs)
	return q1
}

func upperQuartile(xs []float64) float64 {
	_, _, q3 := quartiles(xs)
	return q3
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := rank(p, len(sorted))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// with a tolerance so that, say, p99.9 of 10000 samples is rank 9990
// despite 99.9 having no exact binary form.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-6))
}

// tailPercentiles lists the percentiles tailPercentile chooses from.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest listed percentile that leaves at
// least ten of n samples beyond it, and 0 when n is under 20.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
