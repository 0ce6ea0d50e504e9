package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	tests := []struct {
		name   string
		lo, hi float64
		bins   int
	}{
		{name: "zero bins", lo: 0, hi: 10, bins: 0},
		{name: "negative bins", lo: 0, hi: 10, bins: -3},
		{name: "inverted range", lo: 10, hi: 0, bins: 5},
		{name: "empty range", lo: 5, hi: 5, bins: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewHistogram(tt.lo, tt.hi, tt.bins); err == nil {
				t.Errorf("NewHistogram(%v, %v, %d) succeeded, want error", tt.lo, tt.hi, tt.bins)
			}
		})
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0, 1.9, 2, 5, 9.99, -1, 10, 11})
	if got := h.Count(0); got != 2 { // 0, 1.9
		t.Errorf("bin 0 = %d, want 2", got)
	}
	if got := h.Count(1); got != 1 { // 2
		t.Errorf("bin 1 = %d, want 1", got)
	}
	if got := h.Count(2); got != 1 { // 5
		t.Errorf("bin 2 = %d, want 1", got)
	}
	if got := h.Count(4); got != 1 { // 9.99
		t.Errorf("bin 4 = %d, want 1", got)
	}
	if got := h.Underflow(); got != 1 { // -1
		t.Errorf("underflow = %d, want 1", got)
	}
	if got := h.Overflow(); got != 2 { // 10, 11
		t.Errorf("overflow = %d, want 2", got)
	}
}

func TestHistogramBinEdgesAndCenter(t *testing.T) {
	h, err := NewHistogram(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := h.BinEdges(3)
	if lo != 30 || hi != 40 {
		t.Errorf("BinEdges(3) = [%v, %v), want [30, 40)", lo, hi)
	}
}

// Property: every observation lands in exactly one of {bins, under, over},
// so the total always balances.
func TestHistogramConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := NewHistogram(-50, 50, 7)
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			h.Add(rng.NormFloat64() * 60)
		}
		sum := h.Underflow() + h.Overflow()
		for i := 0; i < h.Bins(); i++ {
			sum += h.Count(i)
		}
		return sum == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
