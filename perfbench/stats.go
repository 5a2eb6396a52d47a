package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// percentile returns the q-th quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

// sortedPercentile is percentile over an already ascending sample.
func sortedPercentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5 percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the acceptance arithmetic applied
// to this benchmark's results. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	at := func(i int) float64 {
		// CPython's formula verbatim, including its clamp of j to
		// [1, len-1], which extrapolates on very small samples.
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > m-2 {
			j = m - 2
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure the benchmark's bounds are compared against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// mean is the arithmetic mean (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fmtList renders a sample for a note line.
func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
