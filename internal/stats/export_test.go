package stats

import "math"

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
