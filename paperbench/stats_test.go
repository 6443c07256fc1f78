package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{2, 7, 1, 8}, 4.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{nil, [3]float64{0, 0, 0}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{2, 7, 1, 8, 2, 8}, [3]float64{1.75, 4.5, 8}},
		{[]float64{5, 5, 5, 5}, [3]float64{5, 5, 5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, [3]float64{3, 6, 9}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n                 int
		ok                bool
		value, percentile float64
		rank              int
	}{
		{0, false, 0, 0, 0},
		{1, false, 1, 0, 0},
		{10, false, 5.5, 0, 0}, // no tail: the median
		{11, true, 1, 100.0 / 11, 1},
		{20, true, 10, 50, 10},
		{21, true, 11, 100.0 * 11 / 21, 11},
		{1000, true, 990, 99, 990},
	} {
		got := tail(seq(c.n))
		if got.OK != c.ok || got.Value != c.value || got.Rank != c.rank ||
			math.Abs(got.Percentile-c.percentile) > 1e-9 || got.N != c.n {
			t.Errorf("tail(n=%d) = %+v, want ok=%v value=%v rank=%d p=%v",
				c.n, got, c.ok, c.value, c.rank, c.percentile)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("tail(n=%d) value %v not finite", c.n, got.Value)
		}
	}
}

func TestRatioAndSpreadDefined(t *testing.T) {
	for _, c := range [][2]float64{{1, 0}, {0, 0}, {math.NaN(), 1}, {1, math.NaN()}, {math.MaxFloat64, 1e-300}} {
		if got := ratio(c[0], c[1]); got != 0 {
			t.Errorf("ratio(%v, %v) = %v, want 0", c[0], c[1], got)
		}
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v", got)
	}
	if got := spread([]float64{9, 10, 11, 10, 10}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("spread = %v, want 0.1", got)
	}
}
