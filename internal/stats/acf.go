package stats

import (
	"fmt"
	"math"
)

// Autocovariance returns the lag-k sample autocovariance of xs using the
// biased (1/n) normalization conventional in time-series analysis.
// It returns NaN when k is out of range or the series is empty.
func Autocovariance(xs []float64, k int) float64 {
	n := len(xs)
	if n == 0 || k < 0 || k >= n {
		return math.NaN()
	}
	m := Mean(xs)
	var sum float64
	for i := 0; i < n-k; i++ {
		sum += (xs[i] - m) * (xs[i+k] - m)
	}
	return sum / float64(n)
}

// ACF returns the autocorrelation function of xs at lags 0..maxLag.
// The lag-0 value is always 1 for a non-constant series. It returns an
// error when the series is too short or constant.
func ACF(xs []float64, maxLag int) ([]float64, error) {
	if len(xs) < 2 {
		return nil, fmt.Errorf("stats: ACF needs at least 2 points, got %d", len(xs))
	}
	if maxLag < 0 || maxLag >= len(xs) {
		return nil, fmt.Errorf("stats: ACF lag %d out of range for series of length %d", maxLag, len(xs))
	}
	c0 := Autocovariance(xs, 0)
	if IsZero(c0) {
		return nil, fmt.Errorf("stats: ACF undefined for constant series")
	}
	out := make([]float64, maxLag+1)
	for k := 0; k <= maxLag; k++ {
		out[k] = Autocovariance(xs, k) / c0
	}
	return out, nil
}
