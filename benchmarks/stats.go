package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs is not modified. Empty input
// yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// medianOfSlices applies f to every pass/slice and returns the median
// of the results together with the per-pass values, which are printed
// so the spread is visible.
func medianOfSlices[T any](passes []T, f func(T) float64) (float64, []float64) {
	vals := make([]float64, len(passes))
	for i, p := range passes {
		vals[i] = f(p)
	}
	return median(vals), vals
}

// rowTypeMedians turns per-pass row latencies (lat[pass][row], every
// pass in the same row order) into one latency per row type: its median
// over the passes.
func rowTypeMedians(lat [][]float64) []float64 {
	if len(lat) == 0 {
		return nil
	}
	out := make([]float64, len(lat[0]))
	col := make([]float64, len(lat))
	for r := range out {
		for p := range lat {
			col[p] = lat[p][r]
		}
		out[r] = median(col)
	}
	return out
}

// geomean returns the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
