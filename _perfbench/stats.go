package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place)
// and how many samples lie strictly beyond its rank.
func quantile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1], len(xs) - rank
}

func median(xs []float64) float64 {
	v, _ := quantile(slices.Clone(xs), 0.5)
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
