package timeseries

import (
	"math"
	"math/rand"
	"testing"

	"botscope/internal/stats"
)

// genARMA simulates an ARMA(p,q) process with the given coefficients.
func genARMA(phi, theta []float64, mu float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	burn := 200
	xs := make([]float64, n+burn)
	es := make([]float64, n+burn)
	for t := range xs {
		e := rng.NormFloat64()
		es[t] = e
		v := mu + e
		for i, p := range phi {
			if t-1-i >= 0 {
				v += p * (xs[t-1-i] - mu)
			}
		}
		for j, q := range theta {
			if t-1-j >= 0 {
				v += q * es[t-1-j]
			}
		}
		xs[t] = v
	}
	return xs[burn:]
}

func TestOrderString(t *testing.T) {
	if got := (Order{P: 2, D: 1, Q: 1}).String(); got != "ARIMA(2,1,1)" {
		t.Errorf("String = %q", got)
	}
}

func TestFitValidation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		name  string
		give  []float64
		order Order
	}{
		{name: "negative order", give: xs, order: Order{P: -1}},
		{name: "empty order", give: xs, order: Order{}},
		{name: "too short", give: []float64{1, 2}, order: Order{P: 2, Q: 2}},
		{name: "constant series", give: []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, order: Order{P: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Fit(tt.give, tt.order); err == nil {
				t.Errorf("Fit(%v) succeeded, want error", tt.order)
			}
		})
	}
}

func TestFitAR1RecoversCoefficient(t *testing.T) {
	const phi = 0.7
	xs := genARMA([]float64{phi}, nil, 10, 4000, 1)
	m, err := Fit(xs, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-phi) > 0.08 {
		t.Errorf("fitted phi = %v, want about %v", m.AR[0], phi)
	}
	if math.Abs(m.Mu-10) > 1 {
		t.Errorf("fitted mu = %v, want about 10", m.Mu)
	}
	if m.Sigma2 < 0.7 || m.Sigma2 > 1.4 {
		t.Errorf("fitted sigma2 = %v, want about 1", m.Sigma2)
	}
}

func TestFitMA1RecoversCoefficient(t *testing.T) {
	const theta = 0.6
	xs := genARMA(nil, []float64{theta}, 0, 4000, 2)
	m, err := Fit(xs, Order{Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MA[0]-theta) > 0.1 {
		t.Errorf("fitted theta = %v, want about %v", m.MA[0], theta)
	}
}

func TestFitARMA11(t *testing.T) {
	xs := genARMA([]float64{0.5}, []float64{0.3}, 5, 6000, 3)
	m, err := Fit(xs, Order{P: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.5) > 0.15 {
		t.Errorf("fitted phi = %v, want about 0.5", m.AR[0])
	}
	if math.Abs(m.MA[0]-0.3) > 0.15 {
		t.Errorf("fitted theta = %v, want about 0.3", m.MA[0])
	}
}

func TestFitWithDifferencing(t *testing.T) {
	// Random walk with AR(1) increments: ARIMA(1,1,0).
	incr := genARMA([]float64{0.6}, nil, 0, 3000, 4)
	xs := make([]float64, len(incr)+1)
	for i, v := range incr {
		xs[i+1] = xs[i] + v
	}
	m, err := Fit(xs, Order{P: 1, D: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.6) > 0.1 {
		t.Errorf("fitted phi on differenced series = %v, want about 0.6", m.AR[0])
	}
}

func TestForecastMeanReversion(t *testing.T) {
	// An AR(1) forecast must converge to the series mean as h grows.
	xs := genARMA([]float64{0.8}, nil, 20, 3000, 5)
	m, err := Fit(xs, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(xs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 100 {
		t.Fatalf("forecast length = %d, want 100", len(fc))
	}
	if math.Abs(fc[99]-m.Mu) > 0.5 {
		t.Errorf("long-horizon forecast = %v, want near mu %v", fc[99], m.Mu)
	}
}

func TestForecastRandomWalkIsFlat(t *testing.T) {
	// ARIMA(0,1,0)-style models forecast a continuation near the last
	// level. Use ARIMA(1,1,0) and verify the forecast stays in a sane band.
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 800)
	for i := 1; i < len(xs); i++ {
		xs[i] = xs[i-1] + rng.NormFloat64()
	}
	m, err := Fit(xs, Order{P: 1, D: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	last := xs[len(xs)-1]
	for i, v := range fc {
		if math.Abs(v-last) > 10 {
			t.Errorf("forecast[%d] = %v, wildly off last level %v", i, v, last)
		}
	}
}

func TestForecastValidation(t *testing.T) {
	xs := genARMA([]float64{0.5}, nil, 0, 200, 7)
	m, err := Fit(xs, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(xs, 0); err == nil {
		t.Error("Forecast(0) succeeded, want error")
	}
	if _, err := m.Forecast(xs, -5); err == nil {
		t.Error("Forecast(-5) succeeded, want error")
	}
}

func TestOneStepForecastsBeatNaiveOnAR(t *testing.T) {
	xs := genARMA([]float64{0.8}, nil, 0, 3000, 8)
	split := len(xs) / 2
	m, err := Fit(xs[:split], Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := m.OneStepForecasts(xs, split)
	if err != nil {
		t.Fatal(err)
	}
	truth := xs[split:]
	if len(preds) != len(truth) {
		t.Fatalf("preds length %d, want %d", len(preds), len(truth))
	}
	// The baseline predicts each point by the mean of everything before it.
	var arimaSSE, meanSSE, sum float64
	for _, x := range xs[:split] {
		sum += x
	}
	for i, x := range truth {
		arimaSSE += (preds[i] - x) * (preds[i] - x)
		mean := sum / float64(split+i)
		meanSSE += (mean - x) * (mean - x)
		sum += x
	}
	if arimaSSE >= meanSSE {
		t.Errorf("ARIMA squared error %v not below the mean forecast's %v on AR(1) data", arimaSSE, meanSSE)
	}
}

func TestOneStepForecastsValidation(t *testing.T) {
	xs := genARMA([]float64{0.5}, nil, 0, 100, 9)
	m, err := Fit(xs, Order{P: 1, D: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.OneStepForecasts(xs, 0); err == nil {
		t.Error("start <= d succeeded, want error")
	}
	if _, err := m.OneStepForecasts(xs, len(xs)); err == nil {
		t.Error("start beyond series succeeded, want error")
	}
}

func TestResidualsAreWhiteForCorrectModel(t *testing.T) {
	xs := genARMA([]float64{0.7}, nil, 0, 3000, 10)
	m, err := Fit(xs, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	resid := m.residuals(xs)
	// Lag-1 autocorrelation of residuals should be near zero.
	var num, den, mean float64
	for _, e := range resid {
		mean += e
	}
	mean /= float64(len(resid))
	for i := 1; i < len(resid); i++ {
		num += (resid[i] - mean) * (resid[i-1] - mean)
	}
	for _, e := range resid {
		den += (e - mean) * (e - mean)
	}
	if r := num / den; math.Abs(r) > 0.08 {
		t.Errorf("residual lag-1 autocorrelation = %v, want about 0", r)
	}
}

func TestAutoFitPicksReasonableOrder(t *testing.T) {
	xs := genARMA([]float64{0.75}, nil, 0, 2000, 11)
	m, err := AutoFit(xs, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Order.P == 0 {
		t.Errorf("AutoFit picked %v for an AR(1) process, want P >= 1", m.Order)
	}
	// The dominant AR coefficient must still be recovered.
	if math.Abs(m.AR[0]-0.75) > 0.2 {
		t.Errorf("AutoFit AR[0] = %v, want about 0.75", m.AR[0])
	}
}

func TestAutoFitAllFail(t *testing.T) {
	if _, err := AutoFit([]float64{1, 1}, 0, 2, 2); err == nil {
		t.Error("AutoFit on 2-point series succeeded, want error")
	}
}

func TestAutoFitPrefersParsimony(t *testing.T) {
	// On pure white noise, BIC's parsimony penalty must keep AutoFit from
	// picking a large order.
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 1500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	m, err := AutoFit(xs, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Order.P+m.Order.Q > 2 {
		t.Errorf("AutoFit picked %v on white noise, want a small order", m.Order)
	}
}

// TestCSSAR1BitEqualsGeneralRecursion holds the AR(1) kernel to the general
// CSS recursion bit for bit, on random series and parameters that include
// a NaN, 1e160 and 1e152 spikes, |phi| > 1 and a huge mu, so the
// divergence guard trips on both sides as well as not.
func TestCSSAR1BitEqualsGeneralRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var series [][]float64
	for _, n := range []int{1, 2, 5, 60, 400} {
		series = append(series, genARMA([]float64{0.8}, nil, 3, n, rng.Int63()))
	}
	nan := genARMA([]float64{0.5}, nil, 0, 200, 32)
	nan[137] = math.NaN()
	spike := genARMA([]float64{0.5}, nil, 0, 200, 33)
	spike[61] = 1e160 // e*e overflows
	bump := genARMA([]float64{0.5}, nil, 0, 200, 38)
	bump[90] = 1e152 // past the guard with e*e finite
	huge := genARMA([]float64{0.9}, nil, 1e151, 200, 34)
	series = append(series, nan, spike, bump, huge)

	var inf, finite int
	for si, w := range series {
		resid := make([]float64, len(w))
		for range 300 {
			mu := rng.NormFloat64() * 5
			phi := (rng.Float64()*2 - 1) * 3 // |phi| up to 3: explodes on long series
			switch rng.Intn(8) {
			case 0: // |e| past the guard, e*e finite or not
				mu = []float64{1e152, 1e155}[rng.Intn(2)] * rng.NormFloat64()
			case 1:
				mu = w[rng.Intn(len(w))]
			}
			got := cssAR1(w, mu, phi)
			want := cssObjective(w, 1, 0, []float64{mu, phi}, resid)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("series %d, mu %v, phi %v: cssAR1 = %v (%#x), general = %v (%#x)",
					si, mu, phi, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if math.IsInf(got, 1) {
				inf++
			} else {
				finite++
			}
		}
	}
	if inf == 0 || finite == 0 {
		t.Errorf("guard tripped on %d of %d evaluations; the inputs must reach both outcomes", inf, inf+finite)
	}
}

// TestSigma2IsResidualSumOfSquares holds the innovation variance to the
// residual pass, bit for bit: the exact AR(1) fit's one cssAR1 pass and
// the value Nelder-Mead returns from the general recursion.
func TestSigma2IsResidualSumOfSquares(t *testing.T) {
	for _, tt := range []struct {
		order Order
		xs    []float64
	}{
		{Order{P: 1}, genARMA([]float64{0.7}, nil, 4, 3000, 35)},
		{Order{P: 1, D: 1}, genARMA([]float64{0.4}, nil, 0, 500, 36)},
		{Order{P: 1, Q: 1}, genARMA([]float64{0.5}, []float64{0.3}, 5, 3000, 37)},
	} {
		m, err := Fit(tt.xs, tt.order)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Difference(tt.xs, tt.order.D)
		if err != nil {
			t.Fatal(err)
		}
		sse := 0.0
		for _, e := range m.residuals(w) {
			sse += e * e
		}
		want := sse / float64(len(w))
		if math.Float64bits(m.Sigma2) != math.Float64bits(want) {
			t.Errorf("%v: Sigma2 = %v, residual pass gives %v", tt.order, m.Sigma2, want)
		}
	}
}

// nelderMeadAR1 is the AR(1) fit the exact one replaced: Nelder-Mead over
// cssAR1 from the series mean and the Yule-Walker phi, with the settings
// the fitter used.
func nelderMeadAR1(t *testing.T, w []float64) (mu, phi float64) {
	t.Helper()
	x0 := []float64{stats.Mean(w), 0}
	if yw, err := yuleWalker(w, 1); err == nil {
		x0[1] = yw[0]
	}
	css := func(p []float64) float64 { return cssAR1(w, p[0], p[1]) }
	best, _, err := NelderMead(css, x0, NelderMeadConfig{MaxIter: 4000, Tol: 1e-12, Step: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return best[0], best[1]
}

// cssCentred is the conditional sum of squares cssAR1 computes, with each
// residual formed as (w_t − mu) − phi·(w_{t−1} − mu): the differences are
// exact when mu is within a factor 2 of the series, so rounding falls at
// the residuals' scale. cssAR1 rounds its prediction at the series'
// magnitude instead, which at an offset of 1e4 and a spread of 0.01 is
// noise of 1e-11 relative, and Nelder-Mead's search settles on it.
func cssCentred(w []float64, mu, phi float64) float64 {
	e := w[0] - mu
	sse := e * e
	for t := 1; t < len(w); t++ {
		e := (w[t] - mu) - phi*(w[t-1]-mu)
		sse += e * e
	}
	return sse
}

// TestFitAR1IsExactMinimum holds the exact AR(1) fit to Nelder-Mead's: on
// random AR(1) series its conditional sum of squares (cssCentred) is
// never above Nelder-Mead's by more than 1e-12 relative. The series cover
// phi near and at ±1 and past 1, the shortest series Fit takes, a mean
// offset of 1e6 at dispersion-like spread, a near-constant series, and
// the long series the report fits.
func TestFitAR1IsExactMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type series struct {
		phi, offset, scale float64
		n                  int
	}
	var cases []series
	for _, phi := range []float64{-0.999, -0.9, -0.4, 0, 0.3, 0.7, 0.95, 0.99, 0.999, 1, 1.02} {
		for _, n := range []int{4, 5, 9, 40, 300, 2700} {
			if phi > 1 && n > 300 {
				continue // explodes past float64
			}
			cases = append(cases,
				series{phi, 0, 1, n},
				series{phi, 1e6 + rng.Float64()*1e5, 300 + rng.Float64()*3000, n},
				series{phi, 7, 1e-4, n})
		}
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, series{rng.Float64()*1.998 - 0.999, rng.NormFloat64() * 1e4, math.Exp(rng.NormFloat64() * 3), 4 + rng.Intn(1000)})
	}
	var worse int
	for i, c := range cases {
		xs := genARMA([]float64{c.phi}, nil, 0, c.n, int64(1000+i))
		for j := range xs {
			xs[j] = c.offset + c.scale*xs[j]
		}
		m, err := Fit(xs, Order{P: 1})
		if err != nil {
			t.Fatalf("case %d %+v: %v", i, c, err)
		}
		nmMu, nmPhi := nelderMeadAR1(t, xs)
		exact, nm := cssCentred(xs, m.Mu, m.AR[0]), cssCentred(xs, nmMu, nmPhi)
		if exact > nm*(1+1e-12) {
			t.Errorf("case %d %+v: exact fit (mu %v, phi %v) CSS %v, Nelder-Mead (mu %v, phi %v) CSS %v",
				i, c, m.Mu, m.AR[0], exact, nmMu, nmPhi, nm)
		}
		if exact < nm*(1-1e-9) {
			worse++
		}
	}
	t.Logf("%d cases; Nelder-Mead stopped above the exact minimum by more than 1e-9 relative on %d", len(cases), worse)
}

// TestFitAR1FindsTheGlobalMinimum holds the exact fit to a scan of the
// profiled sum of squares over phi in [-1.5, 1.5] at steps of 1e-3, on
// series whose first value lies far from the rest. Their profile can
// have two basins, one near phi = 1 where mu follows the outlier, and a
// search that polishes the whole bracket at once (or Nelder-Mead from
// Yule-Walker) settles in the higher one on many of them.
func TestFitAR1FindsTheGlobalMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 40; i++ {
		n := 50 + rng.Intn(1500)
		xs := genARMA([]float64{0.8 + 0.2*rng.Float64()}, nil, 0, n, int64(2000+i))
		xs[0] = rng.NormFloat64() * 30
		m, err := Fit(xs, Order{P: 1})
		if err != nil {
			t.Fatal(err)
		}
		// mu*(phi) = (w_0 + a·Σd)/(1 + (n−1)a²), with a = 1 − phi and
		// Σd = Σ_{t≥1} w_t − phi·Σ_{t≤n−2} w_t.
		var s0, s1 float64
		for t := 1; t < n; t++ {
			s0 += xs[t-1]
			s1 += xs[t]
		}
		scan, scanPhi := math.Inf(1), 0.0
		for j := -1500; j <= 1500; j++ {
			phi := float64(j) / 1000
			a := 1 - phi
			mu := (xs[0] + a*(s1-phi*s0)) / (1 + float64(n-1)*a*a)
			if css := cssCentred(xs, mu, phi); css < scan {
				scan, scanPhi = css, phi
			}
		}
		if got := cssCentred(xs, m.Mu, m.AR[0]); got > scan*(1+1e-12) {
			t.Errorf("series %d (n %d): fit phi %v CSS %v, scan phi %v CSS %v", i, n, m.AR[0], got, scanPhi, scan)
		}
	}
}
