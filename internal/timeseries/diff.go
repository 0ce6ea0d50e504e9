// Package timeseries implements the time-series forecasting substrate for
// botscope: ARIMA(p,d,q) fitted by conditional sum of squares (exactly
// for AR(1), otherwise with a Nelder-Mead optimizer from a Yule-Walker
// start) and BIC order selection.
//
// The paper predicts per-family geolocation-dispersion series with ARIMA
// (§IV-A, Figures 12-13, Table IV). Go has no ARIMA library, so this
// package provides one on the standard library alone.
package timeseries

import "fmt"

// Difference applies d-th order differencing to xs and returns the
// differenced series of length len(xs)-d. It returns an error when the
// series is too short or d is negative.
func Difference(xs []float64, d int) ([]float64, error) {
	if d < 0 {
		return nil, fmt.Errorf("timeseries: negative differencing order %d", d)
	}
	if len(xs) <= d {
		return nil, fmt.Errorf("timeseries: series of length %d too short for d=%d", len(xs), d)
	}
	cur := make([]float64, len(xs))
	copy(cur, xs)
	for i := 0; i < d; i++ {
		next := make([]float64, len(cur)-1)
		for j := 1; j < len(cur); j++ {
			next[j-1] = cur[j] - cur[j-1]
		}
		cur = next
	}
	return cur, nil
}

// Integrate undoes d-th order differencing of a forecast: given the last d
// "heads" of the original series (the values consumed by differencing) and
// the forecast steps in differenced space, it rebuilds level-space values.
//
// tail must hold the final d observations of the original series in
// chronological order. For d == 0 the forecasts are returned unchanged.
func Integrate(forecast []float64, tail []float64, d int) ([]float64, error) {
	if d < 0 {
		return nil, fmt.Errorf("timeseries: negative differencing order %d", d)
	}
	if len(tail) < d {
		return nil, fmt.Errorf("timeseries: need %d tail values to integrate, got %d", d, len(tail))
	}
	out := make([]float64, len(forecast))
	copy(out, forecast)
	// Undo one differencing level at a time, innermost first. At each
	// level, the cumulative sum is anchored at the appropriate tail value
	// differenced (d-1-i) times.
	for level := d - 1; level >= 0; level-- {
		// anchor = last value of the original series differenced `level`
		// times. Compute it from the tail.
		anchorSeries := make([]float64, len(tail))
		copy(anchorSeries, tail)
		for i := 0; i < level; i++ {
			next := make([]float64, len(anchorSeries)-1)
			for j := 1; j < len(anchorSeries); j++ {
				next[j-1] = anchorSeries[j] - anchorSeries[j-1]
			}
			anchorSeries = next
		}
		anchor := anchorSeries[len(anchorSeries)-1]
		acc := anchor
		for i := range out {
			acc += out[i]
			out[i] = acc
		}
	}
	return out, nil
}
