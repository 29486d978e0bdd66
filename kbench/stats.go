package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a reported
// percentile: a percentile read from fewer is one preemption away from
// a different value.
const minTailSamples = 10

// p90MinOps is the smallest sample count whose 90th percentile still
// has minTailSamples samples beyond it.
const p90MinOps = 100

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// refusing when fewer than minTailSamples samples lie beyond it. xs is
// not modified.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q < 1 && n-rank < minTailSamples {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want >= %d", q*100, n, n-rank, minTailSamples)
	}
	s := sorted(xs)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
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

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := sorted(xs)
	at := func(k int) float64 {
		m := float64(n + 1)
		j := int(math.Floor(float64(k) * m / 4))
		delta := float64(k)*m - float64(j)*4
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

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

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
