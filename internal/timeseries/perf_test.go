package timeseries

import (
	"testing"
)

// TestCSSObjectiveZeroAlloc pins the tentpole property of the fitter: one
// objective evaluation allocates nothing, the general recursion with a
// caller-owned residual buffer and the AR(1) kernel with none. Nelder-Mead
// calls the objective hundreds of times per ARMA fit, and every AR(1)
// fit's Sigma2 is one cssAR1 pass, so a single allocation here multiplies.
func TestCSSObjectiveZeroAlloc(t *testing.T) {
	xs := genARMA([]float64{0.6}, []float64{0.3}, 5, 2000, 21)
	params := []float64{5, 0.6, 0.3}
	resid := make([]float64, len(xs))
	allocs := testing.AllocsPerRun(100, func() {
		cssObjective(xs, 1, 1, params, resid)
	})
	if allocs != 0 {
		t.Errorf("cssObjective allocates %.1f objects per evaluation, want 0", allocs)
	}
	if n := testing.AllocsPerRun(100, func() { cssAR1(xs, 5, 0.6) }); n != 0 {
		t.Errorf("cssAR1 allocates %.1f objects per evaluation, want 0", n)
	}
}

// TestAutoFitWinnerIsSelfContained guards the shared-scratch/warm-start
// grid: the winner AutoFit returns must forecast its series and the same
// order must refit standalone.
func TestAutoFitWinnerIsSelfContained(t *testing.T) {
	xs := genARMA([]float64{0.7}, nil, 3, 1500, 22)
	m, err := AutoFit(xs, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(xs, 5); err != nil {
		t.Errorf("AutoFit winner cannot forecast: %v", err)
	}
	if _, err := Fit(xs, m.Order); err != nil {
		t.Errorf("winning order %v does not refit standalone: %v", m.Order, err)
	}
}

func BenchmarkFit(b *testing.B) {
	xs := genARMA([]float64{0.6}, []float64{0.3}, 5, 4000, 23)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Fit(xs, Order{P: 1, Q: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitAR1 is the report's fit: ARIMA(1,0,0) by the exact
// least-squares fit, which needs no residual buffer and no search state.
func BenchmarkFitAR1(b *testing.B) {
	xs := genARMA([]float64{0.6}, nil, 5, 8000, 25)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Fit(xs, Order{P: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutoFit(b *testing.B) {
	xs := genARMA([]float64{0.6}, []float64{0.3}, 5, 2000, 24)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := AutoFit(xs, 0, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}
