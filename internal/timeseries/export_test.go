package timeseries

import "fmt"

// Forecast returns h future values of xs, the series m was fitted on, in
// the original (level) space. The tests hold the fitted parameters to
// their forecasts through it.
func (m *Model) Forecast(xs []float64, h int) ([]float64, error) {
	if h <= 0 {
		return nil, fmt.Errorf("timeseries: forecast horizon must be positive, got %d", h)
	}
	p, q := m.Order.P, m.Order.Q
	hist, err := Difference(xs, m.Order.D)
	if err != nil {
		return nil, err
	}
	n := len(hist)
	var resid []float64
	if q > 0 {
		resid = m.residuals(hist)
	}
	fc := make([]float64, h)
	// at reads the differenced series extended by the forecasts so far,
	// in place: the history is never copied.
	at := func(k int) float64 {
		if k < n {
			return hist[k]
		}
		return fc[k-n]
	}
	for t := n; t < n+h; t++ {
		pred := m.Mu
		for i := 0; i < p; i++ {
			if t-1-i < 0 {
				break
			}
			pred += m.AR[i] * (at(t-1-i) - m.Mu)
		}
		for j := 0; j < q; j++ {
			idx := t - 1 - j
			if idx < 0 {
				break
			}
			var ev float64 // future innovations are zero in expectation
			if idx < n {
				ev = resid[idx]
			}
			pred += m.MA[j] * ev
		}
		fc[t-n] = pred
	}
	return Integrate(fc, xs[len(xs)-m.Order.D:], m.Order.D)
}
