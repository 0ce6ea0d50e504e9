package stats

import "fmt"

// Histogram is a fixed-bin histogram over a half-open interval [Lo, Hi).
// Figures 10 and 11 (geolocation-distance histograms) are built on it.
type Histogram struct {
	lo, hi float64
	width  float64
	counts []int
	under  int // observations below lo
	over   int // observations at or above hi
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
// It returns an error if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram bins must be positive, got %d", bins)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: histogram needs hi > lo, got [%g, %g)", lo, hi)
	}
	return &Histogram{
		lo:     lo,
		hi:     hi,
		width:  (hi - lo) / float64(bins),
		counts: make([]int, bins),
	}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		idx := int((x - h.lo) / h.width)
		if idx >= len(h.counts) { // float round-off at the top edge
			idx = len(h.counts) - 1
		}
		h.counts[idx]++
	}
}

// AddAll records every observation in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the number of observations in bin i.
func (h *Histogram) Count(i int) int { return h.counts[i] }

// Underflow returns the number of observations below the range.
func (h *Histogram) Underflow() int { return h.under }

// Overflow returns the number of observations at or above the range.
func (h *Histogram) Overflow() int { return h.over }

// BinEdges returns the lower and upper edge of bin i.
func (h *Histogram) BinEdges(i int) (lo, hi float64) {
	lo = h.lo + float64(i)*h.width
	return lo, lo + h.width
}
