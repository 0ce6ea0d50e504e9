package stats

import (
	"math"
	"math/rand"
	"testing"
)

// criticalScore is the UniformityScore at which a chi-square
// goodness-of-fit test rejects uniformity, given the statistic's critical
// value for bins-1 degrees of freedom: the score is monotone in the
// statistic, so score > criticalScore is the test's rejection.
func criticalScore(critical float64, total, bins int) float64 {
	return math.Sqrt(critical / (float64(total) * float64(bins-1)))
}

func TestChiSquareUniformOnUniformCounts(t *testing.T) {
	score, err := UniformityScore([]int{100, 100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if score != 0 {
		t.Errorf("score = %v, want 0", score)
	}
}

func TestChiSquareUniformOnSkewedCounts(t *testing.T) {
	counts := []int{1000, 10, 10, 10}
	score, err := UniformityScore(counts)
	if err != nil {
		t.Fatal(err)
	}
	// 16.266 is the chi-square(3) critical value at alpha 0.001.
	if crit := criticalScore(16.266, 1030, len(counts)); score <= crit {
		t.Errorf("heavily skewed counts not rejected: score %v <= %v", score, crit)
	}
}

func TestChiSquareUniformSampledUniform(t *testing.T) {
	// Multinomial samples from a uniform distribution should rarely reject.
	rng := rand.New(rand.NewSource(1))
	rejections := 0
	const trials = 50
	// 41.638 is the chi-square(23) critical value at alpha 0.01.
	crit := criticalScore(41.638, 2400, 24)
	for trial := 0; trial < trials; trial++ {
		counts := make([]int, 24)
		for i := 0; i < 2400; i++ {
			counts[rng.Intn(24)]++
		}
		score, err := UniformityScore(counts)
		if err != nil {
			t.Fatal(err)
		}
		if score > crit {
			rejections++
		}
	}
	// Expected about 1% rejections; allow generous head room.
	if rejections > 5 {
		t.Errorf("rejections = %d/%d at alpha 0.01, want about 0-2", rejections, trials)
	}
}

func TestChiSquareUniformErrors(t *testing.T) {
	if _, err := UniformityScore([]int{5}); err == nil {
		t.Error("single bin accepted")
	}
	if _, err := UniformityScore([]int{0, 0, 0}); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := UniformityScore([]int{5, -1}); err == nil {
		t.Error("negative count accepted")
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
