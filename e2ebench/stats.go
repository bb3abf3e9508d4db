package main

import (
	"fmt"
	"math"
	"slices"
)

// latencies holds raw per-op nanosecond samples of one op class. Percentiles
// are read from the sorted samples themselves, never from log-bucketed
// histograms, whose buckets snap quantiles to powers of two.
type latencies []int64

// quantile is one percentile read off a sorted sample set: its value, the
// sample count, and how many samples lie strictly beyond the value.
type quantile struct {
	q      float64
	ns     int64
	n      int
	beyond int
}

// sorted returns a sorted copy of the samples.
func (l latencies) sorted() latencies {
	s := slices.Clone(l)
	slices.Sort(s)
	return s
}

// at returns the nearest-rank q-quantile of the sorted samples s.
func (s latencies) at(q float64) quantile {
	if len(s) == 0 {
		return quantile{q: q}
	}
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	i = max(0, min(i, len(s)-1))
	v := s[i]
	j := i
	for j < len(s) && s[j] == v {
		j++
	}
	return quantile{q: q, ns: v, n: len(s), beyond: len(s) - j}
}

// tail returns the highest percentile of the ladder that still has at least
// ten samples beyond it, so a tail figure never rests on a few outliers.
func (s latencies) tail() quantile {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.8, 0.75} {
		if v := s.at(q); v.beyond >= 10 {
			return v
		}
	}
	return s.at(0.5)
}

// median returns the median of xs (zero when empty).
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// describe renders a quantile for the human-readable report.
func (q quantile) describe(unit string, scale float64) string {
	return fmt.Sprintf("%.3f %s (p%g, n=%d, beyond=%d)", float64(q.ns)/scale, unit, q.q*100, q.n, q.beyond)
}
