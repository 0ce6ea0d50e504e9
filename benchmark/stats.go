package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples
// and whether the sample supports it: a percentile is reported as
// supported only when at least ten samples lie beyond it, so p90 needs
// 100 samples and p99 needs 1,000. An unsupported percentile still
// carries the nearest-rank value, for the caller to print with a warning.
func percentile(samples []float64, p float64) (value float64, supported bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sorted := sortedCopy(samples)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= 10
}

// median is the midpoint median: the mean of the two central samples for
// an even count.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := sortedCopy(samples)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// opMedians groups the samples by key and returns each operation's median
// milliseconds, in key order; with a hostSpeed every sample is first
// scaled by its own factor.
func opMedians(ops []opSample, h *hostSpeed) []float64 {
	byKey := make(map[int][]float64)
	for _, o := range ops {
		ms := o.ms
		if h != nil {
			ms *= h.factorAt(o.mark)
		}
		byKey[o.key] = append(byKey[o.key], ms)
	}
	keys := make([]int, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = median(byKey[k])
	}
	return out
}

// quartiles mirrors Python's statistics.quantiles(values, n=4), the
// "exclusive" method the acceptance rule is stated in: cut point i sits at
// position i*(n+1)/4 of the sorted sample, interpolated linearly between
// its neighbours. It needs at least two samples.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	n := len(samples)
	if n < 2 {
		if n == 1 {
			return samples[0], samples[0], samples[0]
		}
		return 0, 0, 0
	}
	sorted := sortedCopy(samples)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // past the ends this extrapolates, as Python does
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run steadiness figure every bound is judged against.
func spread(samples []float64) float64 {
	q1, q2, q3 := quartiles(samples)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func sortedCopy(samples []float64) []float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted
}
