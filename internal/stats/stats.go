// Package stats provides the descriptive-statistics substrate used by every
// analysis in botscope: moments, quantiles, empirical distributions,
// histograms, similarity measures, and autocorrelation.
//
// The paper's analyses are statistical summaries over attack logs (means,
// standard deviations, CDFs, cosine similarity of prediction vs ground
// truth). Go's standard library has no statistics package, so this one is
// implemented from scratch on stdlib only.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs. The sum of an empty slice is 0.
func Sum(xs []float64) float64 {
	// Neumaier (improved Kahan) summation keeps the long 7-month
	// aggregations accurate even with mixed magnitudes.
	var sum, comp float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns NaN for samples with fewer than two observations.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// PopVariance returns the population (n) variance of xs, or NaN if empty.
func PopVariance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest value in xs, or NaN if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs, or NaN if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the middle value of xs (mean of the two middle values for
// even-sized samples), or NaN if xs is empty. xs is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile of xs (0 <= q <= 1) using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It returns NaN if xs is empty or q is outside [0, 1]. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted computes the type-7 quantile of an already-sorted sample.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the descriptive statistics the paper reports for
// durations and intervals (mean, median, standard deviation, extremes).
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64
	Min    float64
	Max    float64
	P80    float64 // the paper repeatedly reports 80th percentiles
	P95    float64
}

// Summarize computes a Summary of xs. An empty sample yields a Summary with
// N == 0 and NaN statistics.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, Median: nan, StdDev: nan, Min: nan, Max: nan, P80: nan, P95: nan}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: quantileSorted(sorted, 0.5),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P80:    quantileSorted(sorted, 0.8),
		P95:    quantileSorted(sorted, 0.95),
	}
}

// FractionAtMost returns the fraction of xs that is at most x (v <= x). It
// returns NaN for an empty sample.
func FractionAtMost(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	count := 0
	for _, v := range xs {
		if v <= x {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// Online accumulates streaming moments using Welford's algorithm. The zero
// value is ready to use. It is not safe for concurrent use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of observations added.
func (o *Online) N() int { return o.n }

// Mean returns the running mean, or NaN before any observation.
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.mean
}

// Variance returns the running unbiased variance, or NaN with fewer than two
// observations.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return math.NaN()
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the running unbiased standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest observation, or NaN before any observation.
func (o *Online) Min() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.min
}

// Max returns the largest observation, or NaN before any observation.
func (o *Online) Max() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.max
}
