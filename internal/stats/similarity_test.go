package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCosineSimilarity(t *testing.T) {
	tests := []struct {
		name    string
		a, b    []float64
		want    float64
		wantErr bool
	}{
		{name: "identical", a: []float64{1, 2, 3}, b: []float64{1, 2, 3}, want: 1},
		{name: "scaled", a: []float64{1, 2, 3}, b: []float64{2, 4, 6}, want: 1},
		{name: "opposite", a: []float64{1, 0}, b: []float64{-1, 0}, want: -1},
		{name: "orthogonal", a: []float64{1, 0}, b: []float64{0, 1}, want: 0},
		{name: "length mismatch", a: []float64{1}, b: []float64{1, 2}, wantErr: true},
		{name: "empty", a: nil, b: nil, wantErr: true},
		{name: "zero vector", a: []float64{0, 0}, b: []float64{1, 1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := CosineSimilarity(tt.a, tt.b)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("CosineSimilarity(%v, %v) = %v, want error", tt.a, tt.b, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("CosineSimilarity = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPearsonCorrelation(t *testing.T) {
	tests := []struct {
		name    string
		a, b    []float64
		want    float64
		wantErr bool
	}{
		{name: "perfect positive", a: []float64{1, 2, 3}, b: []float64{2, 4, 6}, want: 1},
		{name: "perfect negative", a: []float64{1, 2, 3}, b: []float64{3, 2, 1}, want: -1},
		{name: "constant sample", a: []float64{1, 1, 1}, b: []float64{1, 2, 3}, wantErr: true},
		{name: "too short", a: []float64{1}, b: []float64{1}, wantErr: true},
		{name: "length mismatch", a: []float64{1, 2}, b: []float64{1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := PearsonCorrelation(tt.a, tt.b)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("PearsonCorrelation = %v, want error", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("PearsonCorrelation = %v, want %v", got, tt.want)
			}
		})
	}
}

// Property: cosine similarity is symmetric, bounded by [-1, 1], and
// invariant under positive scaling.
func TestCosineSimilarityProperties(t *testing.T) {
	f := func(raw []float64, scale float64) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]float64, 0, len(raw)/2)
		b := make([]float64, 0, len(raw)/2)
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
			if i%2 == 0 {
				a = append(a, x)
			} else {
				b = append(b, x)
			}
		}
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		ab, errAB := CosineSimilarity(a, b)
		ba, errBA := CosineSimilarity(b, a)
		if (errAB == nil) != (errBA == nil) {
			return false
		}
		if errAB != nil {
			return true
		}
		if !almostEqual(ab, ba, 1e-9) {
			return false
		}
		if ab < -1-1e-9 || ab > 1+1e-9 {
			return false
		}
		s := math.Abs(scale)
		if s < 1e-3 || s > 1e3 || math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		scaled := make([]float64, n)
		for i := range a {
			scaled[i] = a[i] * s
		}
		sim, err := CosineSimilarity(scaled, b)
		return err == nil && almostEqual(sim, ab, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
