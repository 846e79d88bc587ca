package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters, by
// the method of Python's statistics.quantiles(xs, n=4) (the default,
// "exclusive" method), so the spreads the benchmark reports agree with
// the ones computed from its results. Fewer than two samples give the
// single sample (or 0) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := 0.0
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// tailPercentiles are the candidates for a tail figure, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps p*n/100 landing exactly on an integer from rounding up.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	rank = min(max(rank, 1), n)
	return s[rank-1], n - rank
}

// tail returns the highest of the tail percentiles that has at least ten
// samples beyond it, and which percentile that is. When none has, it
// falls back to the median and reports percentile 50.
func tail(xs []float64) (value, pct float64) {
	for _, p := range tailPercentiles {
		if v, beyond := percentile(xs, p); beyond >= 10 {
			return v, p
		}
	}
	return median(xs), 50
}

// pairWins compares paired runs of a parent and a change, pair i being
// (parent[i], change[i]): wins counts pairs where the change is better,
// losses where it is worse, and ties neither. Extra unpaired runs on
// either side are ignored.
func pairWins(parent, change []float64, lowerIsBetter bool) (wins, losses, ties int) {
	for i := 0; i < len(parent) && i < len(change); i++ {
		d := change[i] - parent[i]
		if !lowerIsBetter {
			d = -d
		}
		switch {
		case d < 0:
			wins++
		case d > 0:
			losses++
		default:
			ties++
		}
	}
	return wins, losses, ties
}
