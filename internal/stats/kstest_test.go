package stats

import (
	"math"
	"math/rand"
	"testing"
)

func normalSample(rng *rand.Rand, n int, mean, std float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + std*rng.NormFloat64()
	}
	return out
}

// ksCritical is the asymptotic two-sample critical value of D at level
// alpha: c(alpha)·sqrt((n1+n2)/(n1·n2)), with c(alpha) = sqrt(-ln(alpha/2)/2).
func ksCritical(alpha float64, n1, n2 int) float64 {
	return math.Sqrt(-math.Log(alpha/2)/2) * math.Sqrt(float64(n1+n2)/float64(n1*n2))
}

func TestKolmogorovSmirnovSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := normalSample(rng, 800, 0, 1)
	b := normalSample(rng, 800, 0, 1)
	d, err := KolmogorovSmirnov(NewECDF(a), NewECDF(b))
	if err != nil {
		t.Fatal(err)
	}
	if crit := ksCritical(0.001, 800, 800); d >= crit {
		t.Errorf("same distribution rejected: D=%v >= %v", d, crit)
	}
}

func TestKolmogorovSmirnovDifferentDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := normalSample(rng, 500, 0, 1)
	b := normalSample(rng, 500, 1.5, 1)
	d, err := KolmogorovSmirnov(NewECDF(a), NewECDF(b))
	if err != nil {
		t.Fatal(err)
	}
	if crit := ksCritical(0.01, 500, 500); d <= crit {
		t.Errorf("shifted distribution not rejected: D=%v <= %v", d, crit)
	}
	if d < 0.3 {
		t.Errorf("D = %v, want large for a 1.5-sigma shift", d)
	}
}

func TestKolmogorovSmirnovIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	d, err := KolmogorovSmirnov(NewECDF(a), NewECDF(a))
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("D on identical samples = %v, want 0", d)
	}
}

func TestKolmogorovSmirnovDisjointSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{100, 200, 300}
	d, err := KolmogorovSmirnov(NewECDF(a), NewECDF(b))
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("D on disjoint samples = %v, want 1", d)
	}
}

func TestKolmogorovSmirnovErrors(t *testing.T) {
	if _, err := KolmogorovSmirnov(NewECDF(nil), NewECDF([]float64{1})); err == nil {
		t.Error("empty first sample accepted")
	}
	if _, err := KolmogorovSmirnov(NewECDF([]float64{1}), NewECDF(nil)); err == nil {
		t.Error("empty second sample accepted")
	}
}

func TestWassersteinDistance(t *testing.T) {
	// Point masses at 0 and at 3: distance is exactly 3.
	d, err := WassersteinDistance(NewECDF([]float64{0, 0, 0}), NewECDF([]float64{3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-3) > 1e-12 {
		t.Errorf("W1 = %v, want 3", d)
	}

	// Identical samples: zero distance.
	same := []float64{1, 5, 9}
	d, err = WassersteinDistance(NewECDF(same), NewECDF(same))
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("W1 on identical samples = %v, want 0", d)
	}

	// Shift invariance: W1(X, X+c) = c.
	rng := rand.New(rand.NewSource(3))
	a := normalSample(rng, 2000, 0, 1)
	b := make([]float64, len(a))
	for i := range a {
		b[i] = a[i] + 2.5
	}
	d, err = WassersteinDistance(NewECDF(a), NewECDF(b))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2.5) > 0.05 {
		t.Errorf("W1 of 2.5-shift = %v, want about 2.5", d)
	}

	if _, err := WassersteinDistance(NewECDF(nil), NewECDF(same)); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestWassersteinSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := normalSample(rng, 300, 0, 2)
	b := normalSample(rng, 400, 1, 1)
	d1, err := WassersteinDistance(NewECDF(a), NewECDF(b))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := WassersteinDistance(NewECDF(b), NewECDF(a))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d1-d2) > 1e-9 {
		t.Errorf("asymmetric W1: %v vs %v", d1, d2)
	}
}
