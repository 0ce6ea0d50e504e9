package stats

import (
	"math"
	"sort"
)

// The sketch's accessors below are read only by its tests.

// Alpha returns the sketch's relative-error guarantee, recovered from
// gamma = (1+alpha)/(1-alpha).
func (s *QuantileSketch) Alpha() float64 { return (s.gamma - 1) / (s.gamma + 1) }

// N returns the number of values added.
func (s *QuantileSketch) N() int { return int(s.n) }

// Bins returns the number of live log buckets (excluding the zero bucket),
// the sketch's accuracy-relevant size.
func (s *QuantileSketch) Bins() int { return s.live }

// Min returns the smallest value added, or NaN for an empty sketch.
func (s *QuantileSketch) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest value added, or NaN for an empty sketch.
func (s *QuantileSketch) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Median and Quantile sort a copy of their sample and read it with
// quantileSorted, the kernel of ECDF.Quantile and Summarize; only the
// tests call them.

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
