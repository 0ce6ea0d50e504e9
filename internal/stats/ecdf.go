package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a fixed sample.
// It backs every CDF figure in the paper (Figures 3, 5, 7, 9, 17).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied and may be reused by
// the caller. An empty sample yields a valid ECDF whose Eval is always NaN.
func NewECDF(xs []float64) *ECDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Eval returns P(X <= x), or NaN for an empty sample.
func (e *ECDF) Eval(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// Index of the first element > x; everything before it is <= x.
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile (type-7 interpolation), or NaN if the
// sample is empty or q is outside [0, 1].
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	return quantileSorted(e.sorted, q)
}

// Point is a single (x, P(X<=x)) pair of a sampled CDF curve.
type Point struct {
	X float64
	P float64
}

// Points samples the CDF at n evenly spaced probabilities in (0, 1], giving
// a plottable curve. n must be positive; fewer points are returned when the
// sample is smaller than n. An empty ECDF yields nil.
func (e *ECDF) Points(n int) []Point {
	if len(e.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(e.sorted) {
		n = len(e.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		p := float64(i) / float64(n)
		pts = append(pts, Point{X: quantileSorted(e.sorted, p), P: p})
	}
	return pts
}

// LogPoints samples the CDF at n x-positions spaced logarithmically between
// the smallest positive observation and the maximum. This matches the
// log-scaled x-axes of the paper's interval and duration CDFs. Observations
// that are <= 0 contribute mass at the left edge of the curve. It returns
// nil when the sample is empty, has no positive values, or n <= 0.
func (e *ECDF) LogPoints(n int) []Point {
	if len(e.sorted) == 0 || n <= 0 {
		return nil
	}
	// First positive value.
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(0, math.Inf(1)))
	if idx == len(e.sorted) {
		return nil
	}
	lo, hi := e.sorted[idx], e.sorted[len(e.sorted)-1]
	if IsZero(hi - lo) {
		return []Point{{X: hi, P: 1}}
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		x := math.Exp(logLo + frac*(logHi-logLo))
		pts = append(pts, Point{X: x, P: e.Eval(x)})
	}
	return pts
}
