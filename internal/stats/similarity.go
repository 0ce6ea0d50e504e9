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
