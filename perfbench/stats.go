package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 needs at least 1,000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples. ok is false when fewer than minBeyond samples lie beyond it,
// so the caller reports nothing rather than an extreme sample.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// sortedMs converts latencies to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
