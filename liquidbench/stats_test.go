package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{7, 1, 3}, [3]float64{1, 3, 7}},
		{[]float64{10.2, 9.9, 10.4, 10.1, 9.7, 10.0, 10.3, 9.8, 10.6, 10.05}, [3]float64{9.875, 10.075, 10.325}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if q1, q2, q3 := quartiles([]float64{5}); q1 != 5 || q2 != 5 || q3 != 5 {
		t.Errorf("quartiles of one sample = %v %v %v, want 5 5 5", q1, q2, q3)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		value   float64
		pct     float64
		comment string
	}{
		{15, 8, 50, "no tail percentile has ten beyond: the median"},
		{100, 90, 90, "p90 leaves exactly ten beyond"},
		{199, 180, 90, "p95 would leave only nine"},
		{200, 190, 95, "p95 leaves ten"},
		{1000, 990, 99, "p99 leaves ten"},
		{10000, 9990, 99.9, "p99.9 leaves ten"},
	}
	for _, c := range cases {
		v, p := tail(seq(c.n))
		if v != c.value || p != c.pct {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v (%s)", c.n, v, p, c.value, c.pct, c.comment)
		}
	}
}

func TestPercentileBeyond(t *testing.T) {
	v, beyond := percentile(seq(20), 50)
	if v != 10 || beyond != 10 {
		t.Errorf("p50 of 1..20 = %v with %d beyond, want 10 with 10", v, beyond)
	}
	if v, beyond := percentile(nil, 99); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, beyond)
	}
}

func TestPairWins(t *testing.T) {
	parent := []float64{10, 10, 10, 10, 10}
	change := []float64{9, 11, 10, 8, 9.5, 1} // the sixth run has no pair
	w, l, ties := pairWins(parent, change, true)
	if w != 3 || l != 1 || ties != 1 {
		t.Errorf("lower is better: %d wins, %d losses, %d ties; want 3 1 1", w, l, ties)
	}
	w, l, ties = pairWins(parent, change, false)
	if w != 1 || l != 3 || ties != 1 {
		t.Errorf("higher is better: %d wins, %d losses, %d ties; want 1 3 1", w, l, ties)
	}
}
