package timeseries

import (
	"testing"
)

// TestCSSObjectiveZeroAlloc pins the tentpole property of the fitter: one
// objective evaluation with a caller-owned residual buffer allocates
// nothing. Nelder-Mead calls the objective thousands of times per fit and
// the transfer matrix runs 2n fits, so a single allocation here multiplies
// into millions.
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
	m, err := Fit(xs, Order{P: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { m.residualsInto(xs, resid) }); n != 0 {
		t.Errorf("residualsInto allocates %.1f objects per pass, want 0", n)
	}
}

// TestAutoFitMatchesFitSelection guards the shared-scratch/warm-start grid:
// the winner AutoFit returns must carry a usable series copy (Forecast
// needs it) and the same order must refit standalone.
func TestAutoFitWinnerIsSelfContained(t *testing.T) {
	xs := genARMA([]float64{0.7}, nil, 3, 1500, 22)
	m, err := AutoFit(xs, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(5); err != nil {
		t.Errorf("AutoFit winner cannot forecast: %v", err)
	}
	if _, err := Fit(xs, m.Order); err != nil {
		t.Errorf("winning order %v does not refit standalone: %v", m.Order, err)
	}
}

func BenchmarkFit(b *testing.B) {
	xs := genARMA([]float64{0.6}, []float64{0.3}, 5, 4000, 23)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(xs, Order{P: 1, Q: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutoFit(b *testing.B) {
	xs := genARMA([]float64{0.6}, []float64{0.3}, 5, 2000, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AutoFit(xs, 0, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}
