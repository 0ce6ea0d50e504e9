package stats

import (
	"fmt"
	"math"
)

// CosineSimilarity returns the cosine of the angle between vectors a and b.
// Table IV of the paper scores ARIMA predictions against ground truth with
// this measure. It returns an error if the lengths differ or either vector
// has zero norm.
func CosineSimilarity(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: cosine similarity needs equal lengths, got %d and %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if IsZero(na) || IsZero(nb) {
		return 0, fmt.Errorf("stats: cosine similarity undefined for zero vector")
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb)), nil
}

// PearsonCorrelation returns the sample Pearson correlation coefficient of
// a and b. It returns an error if the lengths differ, fewer than two points
// are given, or either sample is constant.
func PearsonCorrelation(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: correlation needs equal lengths, got %d and %d", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("stats: correlation needs at least 2 points, got %d", len(a))
	}
	ma, mb := Mean(a), Mean(b)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if IsZero(va) || IsZero(vb) {
		return 0, fmt.Errorf("stats: correlation undefined for constant sample")
	}
	return cov / math.Sqrt(va*vb), nil
}
