package stats

import (
	"math"
	"math/rand"
	"testing"
)

func ar1Series(phi float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = phi*xs[i-1] + rng.NormFloat64()
	}
	return xs
}

func TestAutocovarianceLagZeroIsVariance(t *testing.T) {
	xs := []float64{1, 3, 2, 5, 4, 6}
	if got, want := Autocovariance(xs, 0), PopVariance(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("Autocovariance(0) = %v, want population variance %v", got, want)
	}
}

func TestAutocovarianceOutOfRange(t *testing.T) {
	xs := []float64{1, 2, 3}
	for _, k := range []int{-1, 3, 10} {
		if got := Autocovariance(xs, k); !math.IsNaN(got) {
			t.Errorf("Autocovariance(k=%d) = %v, want NaN", k, got)
		}
	}
	if got := Autocovariance(nil, 0); !math.IsNaN(got) {
		t.Errorf("Autocovariance(empty) = %v, want NaN", got)
	}
}

func TestACFLagZeroIsOne(t *testing.T) {
	xs := ar1Series(0.5, 200, 1)
	acf, err := ACF(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(acf[0], 1, 1e-12) {
		t.Errorf("ACF[0] = %v, want 1", acf[0])
	}
	for k, r := range acf {
		if r < -1-1e-9 || r > 1+1e-9 {
			t.Errorf("ACF[%d] = %v outside [-1, 1]", k, r)
		}
	}
}

func TestACFOfAR1DecaysGeometrically(t *testing.T) {
	const phi = 0.8
	xs := ar1Series(phi, 20000, 2)
	acf, err := ACF(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	// For AR(1), rho(k) = phi^k.
	for k := 1; k <= 3; k++ {
		want := math.Pow(phi, float64(k))
		if math.Abs(acf[k]-want) > 0.05 {
			t.Errorf("ACF[%d] = %v, want about %v", k, acf[k], want)
		}
	}
}

func TestACFErrors(t *testing.T) {
	if _, err := ACF([]float64{1}, 0); err == nil {
		t.Error("ACF of singleton succeeded, want error")
	}
	if _, err := ACF([]float64{1, 2, 3}, 3); err == nil {
		t.Error("ACF with lag >= n succeeded, want error")
	}
	if _, err := ACF([]float64{5, 5, 5, 5}, 2); err == nil {
		t.Error("ACF of constant series succeeded, want error")
	}
}
