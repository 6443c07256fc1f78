package main

import (
	"math"
	"sort"
)

// The statistics the benchmark reports. Every function gives a defined,
// finite answer for any input length, so a degenerate cell (no samples,
// one sample, zero variance) never prints NaN or Inf.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for even n); 0 when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the benchmark's spread is judged.
// Fewer than two samples have no spread: every quartile is the single
// value (0 when xs is empty).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	q := func(i int) float64 {
		// Python's integer arithmetic: position i*(n+1)/4, clamped to
		// 1..n-1 before interpolating (which extrapolates slightly for
		// very small n, exactly as Python does).
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median; 0 when
// the median is 0.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// tailStat is the highest percentile of a sample that still has at least
// tailBeyond samples above it.
type tailStat struct {
	Value      float64 // the sample at that rank
	Percentile float64 // rank/n*100
	Rank       int     // 1-based rank in ascending order
	N          int
	OK         bool // false when n <= tailBeyond: no tail exists
}

const tailBeyond = 10

// tail applies the "highest percentile with at least ten samples beyond
// it" rule: the sample of rank n-10 in ascending order. With n <= 10 no
// sample qualifies; OK is false and Value falls back to the median so the
// metric stays defined.
func tail(xs []float64) tailStat {
	n := len(xs)
	k := n - tailBeyond
	if k < 1 {
		return tailStat{Value: median(xs), N: n}
	}
	s := sorted(xs)
	return tailStat{Value: s[k-1], Percentile: 100 * float64(k) / float64(n),
		Rank: k, N: n, OK: true}
}

// ratio divides, defining x/0 as 0 so shares and rates over empty or
// zero-work cells stay finite.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(num) || math.IsNaN(den) {
		return 0
	}
	r := num / den
	if math.IsInf(r, 0) {
		return 0
	}
	return r
}
