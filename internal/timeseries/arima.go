package timeseries

import (
	"fmt"
	"math"

	"botscope/internal/stats"
)

// Order is an ARIMA(p,d,q) model order.
type Order struct {
	P int // autoregressive terms
	D int // differencing order
	Q int // moving-average terms
}

// String renders the order in the conventional ARIMA(p,d,q) form.
func (o Order) String() string { return fmt.Sprintf("ARIMA(%d,%d,%d)", o.P, o.D, o.Q) }

func (o Order) validate() error {
	if o.P < 0 || o.D < 0 || o.Q < 0 {
		return fmt.Errorf("timeseries: invalid order %v", o)
	}
	if o.P == 0 && o.Q == 0 && o.D == 0 {
		return fmt.Errorf("timeseries: order (0,0,0) has nothing to fit")
	}
	return nil
}

// Model is a fitted ARIMA model.
type Model struct {
	Order Order
	// Mu is the mean of the differenced series.
	Mu float64
	// AR holds phi_1..phi_p.
	AR []float64
	// MA holds theta_1..theta_q.
	MA []float64
	// Sigma2 is the innovation variance estimated from CSS residuals.
	Sigma2 float64
	// AIC is the Akaike information criterion of the fit.
	AIC float64
	// BIC is the Bayesian information criterion; AutoFit minimizes it
	// because its stronger parsimony penalty resists the ARMA-redundancy
	// overfitting that plain AIC permits on near-white series.
	BIC float64
	// N is the number of observations the model was fitted on.
	N int

	series []float64 // original (undifferenced) training series
	diffed []float64 // differenced, for forecasting state
}

// fitScratch is the working memory of one fit (or one AutoFit grid): the
// CSS residual buffer reused by every objective evaluation. Nelder-Mead
// calls the objective thousands of times per fit, so allocating the
// residual slice inside cssObjective used to dominate the fit's profile.
type fitScratch struct {
	resid []float64
}

func (sc *fitScratch) residBuf(n int) []float64 {
	if cap(sc.resid) < n {
		sc.resid = make([]float64, n)
	}
	return sc.resid[:n]
}

// Fit estimates an ARIMA model on xs by conditional sum of squares.
// AR coefficients start at Yule-Walker estimates, MA coefficients at zero,
// and Nelder-Mead refines everything jointly.
func Fit(xs []float64, order Order) (*Model, error) {
	m, err := fitDiffed(xs, nil, order, nil, &fitScratch{})
	if err != nil {
		return nil, err
	}
	m.series = append([]float64(nil), xs...)
	return m, nil
}

// fitDiffed is Fit over a possibly pre-differenced series. w may be nil
// (it is then derived from xs), warm may be nil (Yule-Walker cold start),
// and sc supplies reusable working memory. The returned model has no
// series copy: callers that keep the model attach one (Fit, AutoFit's
// winner), so losing grid candidates never copy the input.
func fitDiffed(xs, w []float64, order Order, warm []float64, sc *fitScratch) (*Model, error) {
	if err := order.validate(); err != nil {
		return nil, err
	}
	minLen := order.P + order.Q + order.D + 3
	if len(xs) < minLen {
		return nil, fmt.Errorf("timeseries: series of length %d too short for %v (need >= %d)", len(xs), order, minLen)
	}
	if w == nil {
		var err error
		w, err = Difference(xs, order.D)
		if err != nil {
			return nil, err
		}
	}
	if stats.PopVariance(w) == 0 {
		return nil, fmt.Errorf("timeseries: differenced series is constant; nothing to fit")
	}

	p, q := order.P, order.Q

	// Parameter vector layout: [mu, phi_1..phi_p, theta_1..theta_q].
	x0 := make([]float64, 1+p+q)
	if len(warm) == len(x0) {
		copy(x0, warm)
	} else {
		x0[0] = stats.Mean(w)
		// Initial AR estimate via Yule-Walker (Durbin-Levinson on the ACF).
		if p > 0 {
			if pacfPhi, ywErr := yuleWalker(w, p); ywErr == nil {
				copy(x0[1:1+p], pacfPhi)
			}
		}
	}

	resid := sc.residBuf(len(w))
	css := func(params []float64) float64 {
		return cssObjective(w, p, q, params, resid)
	}

	best, _, err := NelderMead(css, x0, NelderMeadConfig{MaxIter: 4000, Tol: 1e-12, Step: 0.2})
	if err != nil {
		return nil, fmt.Errorf("timeseries: fit %v: %w", order, err)
	}

	m := &Model{
		Order:  order,
		Mu:     best[0],
		AR:     append([]float64(nil), best[1:1+p]...),
		MA:     append([]float64(nil), best[1+p:]...),
		N:      len(xs),
		diffed: w,
	}
	sse := 0.0
	for _, e := range m.residualsInto(w, resid) {
		sse += e * e
	}
	n := float64(len(w))
	m.Sigma2 = sse / n
	k := float64(1 + p + q + 1) // mu + AR + MA + sigma2
	if m.Sigma2 <= 0 {
		m.Sigma2 = 1e-300
	}
	m.AIC = n*math.Log(m.Sigma2) + 2*k
	m.BIC = n*math.Log(m.Sigma2) + k*math.Log(n)
	return m, nil
}

// cssObjective computes the conditional sum of squares for the parameter
// vector [mu, phi..., theta...] on the differenced series w, writing the
// recursion state into resid (len(w) scratch owned by the caller) so the
// evaluation itself allocates nothing. Exploding recursions
// (non-stationary/non-invertible parameters) return +Inf.
func cssObjective(w []float64, p, q int, params, resid []float64) float64 {
	mu := params[0]
	phi := params[1 : 1+p]
	theta := params[1+p:]
	var sse float64
	for t := range w {
		pred := mu
		for i := 0; i < p; i++ {
			if t-1-i < 0 {
				break
			}
			pred += phi[i] * (w[t-1-i] - mu)
		}
		for j := 0; j < q; j++ {
			if t-1-j < 0 {
				break
			}
			pred += theta[j] * resid[t-1-j]
		}
		e := w[t] - pred
		if math.IsNaN(e) || math.Abs(e) > 1e150 {
			return math.Inf(1)
		}
		resid[t] = e
		sse += e * e
	}
	if math.IsNaN(sse) || math.IsInf(sse, 0) {
		return math.Inf(1)
	}
	return sse
}

// residuals runs the CSS recursion with the fitted parameters.
func (m *Model) residuals(w []float64) []float64 {
	return m.residualsInto(w, make([]float64, len(w)))
}

// residualsInto is residuals writing into caller-owned scratch.
func (m *Model) residualsInto(w, resid []float64) []float64 {
	p, q := m.Order.P, m.Order.Q
	resid = resid[:len(w)]
	for t := range w {
		pred := m.Mu
		for i := 0; i < p; i++ {
			if t-1-i < 0 {
				break
			}
			pred += m.AR[i] * (w[t-1-i] - m.Mu)
		}
		for j := 0; j < q; j++ {
			if t-1-j < 0 {
				break
			}
			pred += m.MA[j] * resid[t-1-j]
		}
		resid[t] = w[t] - pred
	}
	return resid
}

// Residuals returns the in-sample CSS residuals in differenced space.
func (m *Model) Residuals() []float64 {
	return m.residuals(m.diffed)
}

// Forecast returns h future values in the original (level) space.
func (m *Model) Forecast(h int) ([]float64, error) {
	if h <= 0 {
		return nil, fmt.Errorf("timeseries: forecast horizon must be positive, got %d", h)
	}
	p, q := m.Order.P, m.Order.Q
	resid := m.residuals(m.diffed)
	// Extended differenced series: history + forecasts, preallocated to the
	// final n+h size so the forecast loop never regrows either slice.
	n := len(m.diffed)
	w := make([]float64, n, n+h)
	copy(w, m.diffed)
	e := make([]float64, n, n+h)
	copy(e, resid)
	for t := n; t < n+h; t++ {
		pred := m.Mu
		for i := 0; i < p; i++ {
			if t-1-i < 0 {
				break
			}
			pred += m.AR[i] * (w[t-1-i] - m.Mu)
		}
		for j := 0; j < q; j++ {
			idx := t - 1 - j
			if idx < 0 {
				break
			}
			var ev float64
			if idx < len(e) {
				ev = e[idx]
			}
			pred += m.MA[j] * ev
		}
		w = append(w, pred)
		e = append(e, 0) // future innovations are zero in expectation
	}
	diffForecast := w[n:]
	tail := m.series
	if len(tail) > m.Order.D && m.Order.D > 0 {
		tail = tail[len(tail)-m.Order.D:]
	}
	return Integrate(diffForecast, tail, m.Order.D)
}

// OneStepForecasts produces one-step-ahead level-space predictions for
// full[start:], using the fitted parameters and the observed history up to
// each point — the protocol behind the paper's Figures 12-13, where the
// second half of each series is predicted point by point.
func (m *Model) OneStepForecasts(full []float64, start int) ([]float64, error) {
	d := m.Order.D
	if start <= d {
		return nil, fmt.Errorf("timeseries: start %d must exceed differencing order %d", start, d)
	}
	if start >= len(full) {
		return nil, fmt.Errorf("timeseries: start %d out of range for series of length %d", start, len(full))
	}
	w, err := Difference(full, d)
	if err != nil {
		return nil, err
	}
	resid := m.residuals(w)
	p, q := m.Order.P, m.Order.Q
	preds := make([]float64, 0, len(full)-start)
	for t := start; t < len(full); t++ {
		wi := t - d // index of full[t] in differenced space
		pred := m.Mu
		for i := 0; i < p; i++ {
			if wi-1-i < 0 {
				break
			}
			pred += m.AR[i] * (w[wi-1-i] - m.Mu)
		}
		for j := 0; j < q; j++ {
			if wi-1-j < 0 {
				break
			}
			pred += m.MA[j] * resid[wi-1-j]
		}
		// Undo differencing: x_t = w_t + sum of lower-order tails. For the
		// common d in {0,1}, this is pred (+ full[t-1]).
		level := pred
		if d > 0 {
			// Rebuild by integrating the single-step forecast on the
			// observed tail ending at t-1.
			tail := full[t-d : t]
			lv, intErr := Integrate([]float64{pred}, tail, d)
			if intErr != nil {
				return nil, intErr
			}
			level = lv[0]
		}
		preds = append(preds, level)
	}
	return preds, nil
}

// yuleWalker solves the Yule-Walker equations for an AR(p) fit via the
// Durbin-Levinson recursion, returning phi_1..phi_p.
func yuleWalker(w []float64, p int) ([]float64, error) {
	acf, err := stats.ACF(w, p)
	if err != nil {
		return nil, err
	}
	phi := make([]float64, p+1)
	prev := make([]float64, p+1)
	phi[1] = acf[1]
	v := 1 - acf[1]*acf[1]
	for k := 2; k <= p; k++ {
		copy(prev, phi)
		num := acf[k]
		for j := 1; j < k; j++ {
			num -= prev[j] * acf[k-j]
		}
		if v <= 0 {
			break
		}
		phikk := num / v
		phi[k] = phikk
		for j := 1; j < k; j++ {
			phi[j] = prev[j] - phikk*prev[k-j]
		}
		v *= 1 - phikk*phikk
	}
	return phi[1 : p+1], nil
}

// AutoFit tries every order in the grid p in [0,maxP], q in [0,maxQ] with
// the given d, and returns the model with the lowest BIC. Orders that fail
// to fit are skipped; an error is returned only if every order fails.
//
// The grid shares one differenced series and one residual scratch across
// every candidate, defers the training-series copy to the single winner,
// and warm-starts each fit from the parameters of its already-fitted
// neighbor ((p, q-1), falling back to (p-1, q)) padded with a zero for the
// new coefficient — neighboring ARMA orders have near-identical optima, so
// the simplex starts close and converges in far fewer evaluations than a
// cold Yule-Walker start.
func AutoFit(xs []float64, d, maxP, maxQ int) (*Model, error) {
	if maxP < 0 || maxQ < 0 {
		return nil, fmt.Errorf("timeseries: negative auto-fit grid bounds (%d, %d)", maxP, maxQ)
	}
	var (
		best    *Model
		lastErr error
	)
	w, err := Difference(xs, d)
	if err != nil {
		return nil, fmt.Errorf("timeseries: auto fit found no viable order: %w", err)
	}
	sc := &fitScratch{}
	// prevRow[q] holds the fitted parameter vector of (p-1, q); left holds
	// the current row's (p, q-1).
	prevRow := make([][]float64, maxQ+1)
	curRow := make([][]float64, maxQ+1)
	for p := 0; p <= maxP; p++ {
		var left []float64
		for q := 0; q <= maxQ; q++ {
			curRow[q] = nil
			if p == 0 && q == 0 && d == 0 {
				continue
			}
			warm := warmStart(left, prevRow[q], p, q)
			m, err := fitDiffed(xs, w, Order{P: p, D: d, Q: q}, warm, sc)
			if err != nil {
				lastErr = err
				left = nil
				continue
			}
			params := make([]float64, 1+p+q)
			params[0] = m.Mu
			copy(params[1:1+p], m.AR)
			copy(params[1+p:], m.MA)
			curRow[q] = params
			left = params
			if best == nil || m.BIC < best.BIC {
				best = m
			}
		}
		prevRow, curRow = curRow, prevRow
	}
	if best == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("timeseries: empty order grid")
		}
		return nil, fmt.Errorf("timeseries: auto fit found no viable order: %w", lastErr)
	}
	best.series = append([]float64(nil), xs...)
	return best, nil
}

// warmStart builds the initial parameter vector for order (p, q) from a
// fitted neighbor: left is (p, q-1), up is (p-1, q). The returned vector
// has layout [mu, phi_1..p, theta_1..q] with a zero in the slot the
// neighbor lacks; nil means no neighbor fitted (cold start).
func warmStart(left, up []float64, p, q int) []float64 {
	if len(left) == 1+p+q-1 {
		warm := make([]float64, 1+p+q)
		copy(warm, left) // theta_q starts at zero
		return warm
	}
	if len(up) == 1+p+q-1 {
		warm := make([]float64, 1+p+q)
		copy(warm[:p], up[:p]) // mu, phi_1..p-1; phi_p starts at zero
		copy(warm[1+p:], up[p:])
		return warm
	}
	return nil
}
