package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestChiSquareUniformOnUniformCounts(t *testing.T) {
	counts := []int{100, 100, 100, 100}
	res, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 {
		t.Errorf("statistic = %v, want 0", res.Statistic)
	}
	if res.PValue != 1 {
		t.Errorf("p = %v, want 1", res.PValue)
	}
	if res.DegreesOfFreedom != 3 {
		t.Errorf("dof = %d, want 3", res.DegreesOfFreedom)
	}
	if res.PValue < 0.05 {
		t.Error("uniform counts rejected")
	}
}

func TestChiSquareUniformOnSkewedCounts(t *testing.T) {
	counts := []int{1000, 10, 10, 10}
	res, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue >= 0.001 {
		t.Errorf("heavily skewed counts not rejected: p = %v", res.PValue)
	}
}

func TestChiSquareUniformSampledUniform(t *testing.T) {
	// Multinomial samples from a uniform distribution should rarely reject.
	rng := rand.New(rand.NewSource(1))
	rejections := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		counts := make([]int, 24)
		for i := 0; i < 2400; i++ {
			counts[rng.Intn(24)]++
		}
		res, err := ChiSquareUniform(counts)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 0.01 {
			rejections++
		}
	}
	// Expected about 1% rejections; allow generous head room.
	if rejections > 5 {
		t.Errorf("rejections = %d/%d at alpha 0.01, want about 0-2", rejections, trials)
	}
}

func TestChiSquareUniformErrors(t *testing.T) {
	if _, err := ChiSquareUniform([]int{5}); err == nil {
		t.Error("single bin accepted")
	}
	if _, err := ChiSquareUniform([]int{0, 0, 0}); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := ChiSquareUniform([]int{5, -1}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// Chi-square with 1 dof: P(X >= 3.841) = 0.05.
	tests := []struct {
		x, k, want, tol float64
	}{
		{x: 3.841, k: 1, want: 0.05, tol: 1e-3},
		{x: 5.991, k: 2, want: 0.05, tol: 1e-3},
		{x: 16.919, k: 9, want: 0.05, tol: 1e-3},
		{x: 2.558, k: 10, want: 0.99, tol: 1e-3},
		{x: 0, k: 5, want: 1, tol: 0},
	}
	for _, tt := range tests {
		if got := chiSquareSurvival(tt.x, tt.k); math.Abs(got-tt.want) > tt.tol {
			t.Errorf("chiSquareSurvival(%v, %v) = %v, want %v", tt.x, tt.k, got, tt.want)
		}
	}
}

func TestChiSquareSurvivalMonotone(t *testing.T) {
	prev := 1.0
	for x := 0.5; x < 40; x += 0.5 {
		p := chiSquareSurvival(x, 6)
		if p > prev+1e-12 {
			t.Fatalf("survival not decreasing at x=%v: %v > %v", x, p, prev)
		}
		if p < 0 || p > 1 {
			t.Fatalf("survival %v out of range at x=%v", p, x)
		}
		prev = p
	}
}

func TestUniformityScore(t *testing.T) {
	flat, err := UniformityScore([]int{50, 50, 50, 50})
	if err != nil {
		t.Fatal(err)
	}
	if flat != 0 {
		t.Errorf("uniform score = %v, want 0", flat)
	}
	// All mass in one bin is the maximal concentration: score 1.
	peaked, err := UniformityScore([]int{200, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(peaked-1) > 1e-9 {
		t.Errorf("peaked score = %v, want 1", peaked)
	}
	mild, err := UniformityScore([]int{60, 50, 40, 50})
	if err != nil {
		t.Fatal(err)
	}
	if mild <= 0 || mild >= peaked {
		t.Errorf("mild skew score = %v, want between 0 and 1", mild)
	}
	// Scale invariance: multiplying all counts by 10 keeps the score.
	mild10, err := UniformityScore([]int{600, 500, 400, 500})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mild-mild10) > 1e-9 {
		t.Errorf("score not scale invariant: %v vs %v", mild, mild10)
	}
}
