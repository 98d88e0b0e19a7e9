package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of xs by the nearest-rank
// rule: the smallest value with at least p of the sample at or below
// it. An empty sample gives 0. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the middle value of xs (the mean of the middle two
// for an even count). An empty sample gives 0. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// windowMedian cuts samples into nWin equal windows of the interval
// [0, span) by their at offsets, applies f to each non-empty window
// and returns the median of the results: one noisy-neighbour burst
// spoils one window, not the metric.
func windowMedian(at, samples []float64, span float64, nWin int, f func([]float64) float64) float64 {
	wins := make([][]float64, nWin)
	for i, t := range at {
		w := int(t / span * float64(nWin))
		if t < 0 || w >= nWin {
			continue
		}
		wins[w] = append(wins[w], samples[i])
	}
	var vals []float64
	for _, w := range wins {
		if len(w) > 0 {
			vals = append(vals, f(w))
		}
	}
	return median(vals)
}

// share returns part/whole, or 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
