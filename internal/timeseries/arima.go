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
	// BIC is the Bayesian information criterion; AutoFit minimizes it
	// because its stronger parsimony penalty resists the ARMA-redundancy
	// overfitting that the Akaike criterion permits on near-white series.
	BIC float64
	// N is the number of observations the model was fitted on.
	N int
}

// fitScratch is the working memory of one fit (or one AutoFit grid): the
// CSS residual buffer reused by every objective evaluation of the general
// recursion, which Nelder-Mead calls hundreds of times a fit. The exact
// AR(1) fit needs no buffer.
type fitScratch struct {
	resid []float64
}

func (sc *fitScratch) residBuf(n int) []float64 {
	if cap(sc.resid) < n {
		sc.resid = make([]float64, n)
	}
	return sc.resid[:n]
}

// Fit estimates an ARIMA model on xs by conditional sum of squares. An
// AR(1) (p = 1, q = 0, any d) is fitted exactly (fitAR1); every other
// order starts its AR coefficients at Yule-Walker estimates and its MA
// coefficients at zero, and Nelder-Mead refines everything jointly.
func Fit(xs []float64, order Order) (*Model, error) {
	return fitDiffed(xs, nil, order, nil, &fitScratch{})
}

// fitDiffed is Fit over a possibly pre-differenced series. w may be nil
// (it is then derived from xs), warm may be nil (Yule-Walker cold start;
// the exact AR(1) fit needs none), and sc supplies reusable working
// memory.
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
	if p == 1 && q == 0 {
		mu, phi, err := fitAR1(w)
		if err != nil {
			return nil, fmt.Errorf("timeseries: fit %v: %w", order, err)
		}
		return newModel(xs, w, order, []float64{mu, phi}, cssAR1(w, mu, phi)), nil
	}

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

	// sse is the objective at best: Sigma2 needs no second residual pass.
	best, sse, err := NelderMead(css, x0, NelderMeadConfig{MaxIter: 4000, Tol: 1e-12, Step: 0.2})
	if err != nil {
		return nil, fmt.Errorf("timeseries: fit %v: %w", order, err)
	}
	return newModel(xs, w, order, best, sse), nil
}

// newModel is the model with parameters [mu, phi..., theta...] fitted on
// xs, differenced to w, whose conditional sum of squares is sse.
func newModel(xs, w []float64, order Order, params []float64, sse float64) *Model {
	p, q := order.P, order.Q
	m := &Model{
		Order: order,
		Mu:    params[0],
		AR:    append([]float64(nil), params[1:1+p]...),
		MA:    append([]float64(nil), params[1+p:]...),
		N:     len(xs),
	}
	n := float64(len(w))
	m.Sigma2 = sse / n
	k := float64(1 + p + q + 1) // mu + AR + MA + sigma2
	if m.Sigma2 <= 0 {
		m.Sigma2 = 1e-300
	}
	m.BIC = n*math.Log(m.Sigma2) + k*math.Log(n)
	return m
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

// cssAR1 is cssObjective for p == 1, q == 0 (every fit the report makes):
// the same floating-point operations in the same order, so the same bits,
// without the lag loops or the residual store AR never reads. An AR(1)
// fit's Sigma2 is one pass of it at the exact minimum.
func cssAR1(w []float64, mu, phi float64) float64 {
	e := w[0] - mu
	if !(math.Abs(e) <= 1e150) {
		return math.Inf(1)
	}
	sse := e * e
	prev := w[0]
	for _, x := range w[1:] {
		pred := mu
		pred += phi * (prev - mu)
		e := x - pred
		if !(math.Abs(e) <= 1e150) {
			return math.Inf(1)
		}
		sse += e * e
		prev = x
	}
	return sse
}

// fitAR1 is the exact conditional least-squares fit of an AR(1) with mean
// (Box and Jenkins): the (mu, phi) that minimise cssAR1(w, mu, phi), with
// no iteration over mu and none over the series per phi.
//
// Write y = w − m for the series centred on its mean m, k = n − 1,
// a = 1 − φ and d_t = y_t − φ·y_{t−1}. For a fixed φ the sum of squares
// (y_0 − ν)² + Σ_{t≥1} (d_t − a·ν)² is a quadratic in ν = mu − m, least
// at ν*(φ) = (y_0 + a·Σd)/(1 + k·a²). Splitting Σ(d_t − aν)² into its
// spread about d̄ = Σd/k plus k(d̄ − aν)² gives the profile
//
//	CSS*(φ) = Qmin + c00·(φ − φ̂)² + k·L(φ)²/(1 + k·a²),  L(φ) = a·y_0 − d̄,
//
// where c00 and c10 are the lag-1 regression's sums of squares and
// products about their means (of y_{t−1}, and of y_t with y_{t−1}, over
// t ≥ 1), φ̂ = c10/c00 its slope and Qmin its residual sum of squares.
// c00, c10, Σd and L come from four lagged sums of y (Σy_{t−1}, Σy_t,
// Σy_{t−1}², Σy_t·y_{t−1}), so the search evaluates the excess over Qmin
// in O(1), and Qmin, a constant, drops out. Centring keeps the sums and
// the excess free of the cancellation that raw dispersion series (CSS of
// order 1e6-1e9) suffer.
func fitAR1(w []float64) (mu, phi float64, err error) {
	m := stats.Mean(w)
	y0 := w[0] - m
	var s0, s1, s00, s10 float64
	prev := y0
	for _, x := range w[1:] {
		y := x - m
		s0 += prev
		s1 += y
		s00 += prev * prev
		s10 += y * prev
		prev = y
	}
	k := float64(len(w) - 1)
	c00 := s00 - s0*s0/k
	hat := (s10 - s1*s0/k) / c00
	excess := func(phi float64) float64 {
		a := 1 - phi
		l := a*y0 - (s1-phi*s0)/k
		return c00*(phi-hat)*(phi-hat) + k*l*l/(1+k*a*a)
	}
	// The bracket: the excess is at least c00·(φ − φ̂)², and at the
	// minimum it is at most its value at φ̂, so the minimiser lies within
	// r = √(excess(φ̂)/c00) of φ̂.
	r := math.Sqrt(excess(hat) / c00)
	if !(c00 > 0) || math.IsInf(r, 0) || math.IsNaN(r) {
		return 0, 0, fmt.Errorf("AR(1) sum of squares has no finite minimum (series not finite, or constant before its last point)")
	}
	phi = ar1Minimise(excess, hat-r, hat+r)
	a := 1 - phi
	return m + (y0+a*(s1-phi*s0))/(1+k*a*a), phi, nil
}

// ar1Grid is the number of points ar1Minimise samples its bracket at.
// The excess's derivative is a quintic's ratio to a positive quartic, so
// it has at most three local minima; the grid separates basins wider
// than a 63rd of the bracket.
const ar1Grid = 64

// ar1Minimise returns the minimiser of f on [lo, hi]: it samples the
// bracket at ar1Grid points and polishes every grid point no higher than
// its neighbours by golden-section search over the cells beside it. Each
// search runs 80 steps, which shrink its cell by 0.618^80 ≈ 2e-17, below
// the spacing of float64 near φ.
func ar1Minimise(f func(float64) float64, lo, hi float64) float64 {
	var xs, fs [ar1Grid]float64
	step := (hi - lo) / (ar1Grid - 1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
		fs[i] = f(xs[i])
	}
	best, fbest := xs[0], math.Inf(1)
	for i := range xs {
		l, r := max(i-1, 0), min(i+1, ar1Grid-1)
		if fs[i] > fs[l] || fs[i] > fs[r] {
			continue
		}
		x := golden(f, xs[l], xs[r])
		for _, c := range [2]float64{xs[i], x} {
			if fc := f(c); fc < fbest {
				best, fbest = c, fc
			}
		}
	}
	return best
}

// golden is golden-section search for the minimiser of f on [lo, hi].
func golden(f func(float64) float64, lo, hi float64) float64 {
	const inv = 0.6180339887498949 // (√5 − 1)/2
	x1, x2 := hi-inv*(hi-lo), lo+inv*(hi-lo)
	f1, f2 := f(x1), f(x2)
	for range 80 {
		if f1 <= f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - inv*(hi-lo)
			f1 = f(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + inv*(hi-lo)
			f2 = f(x2)
		}
	}
	if f1 <= f2 {
		return x1
	}
	return x2
}

// residuals runs the CSS recursion with the fitted parameters.
func (m *Model) residuals(w []float64) []float64 {
	p, q := m.Order.P, m.Order.Q
	resid := make([]float64, len(w))
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
	w := full // read in place when there is nothing to difference
	if d > 0 {
		var err error
		if w, err = Difference(full, d); err != nil {
			return nil, err
		}
	}
	p, q := m.Order.P, m.Order.Q
	var resid []float64
	if q > 0 {
		resid = m.residuals(w)
	}
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
// every candidate, and warm-starts each fit from the parameters of its already-fitted
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
