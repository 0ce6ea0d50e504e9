package core

import (
	"fmt"
	"math"
	"sort"

	"botscope/internal/dataset"
	"botscope/internal/geo"
	"botscope/internal/memo"
	"botscope/internal/stats"
)

// SymmetryToleranceKm is the dispersion below which a bot formation is
// treated as geographically symmetric ("zero" in the paper's Figs 9-11).
// The paper's commercial geocoder snapped bots to city centroids, making
// exact zeros possible; with per-IP jitter a small tolerance stands in.
const SymmetryToleranceKm = 150.0

// DispersionPoint is the paper's geolocation-distribution value of one
// attack: |sum of signed distances| of its bots around their center.
type DispersionPoint struct {
	AttackID dataset.DDoSID
	Value    float64 // km
}

// DispersionSeries computes each attack's dispersion for one family, in
// chronological order (the raw series behind Figs 9-13). Bots whose IPs
// cannot be resolved in the Botlist are skipped; attacks with no
// resolvable bots are dropped.
//
// The scan runs on the store's dense bot index: resolving a bot is an
// array load instead of a map lookup, its unit vector is precomputed,
// and the loop allocates nothing beyond the result slice.
func DispersionSeries(s *dataset.Store, f dataset.Family) []DispersionPoint {
	rows := s.RowsByFamily(f)
	ix := s.BotDense()
	out := make([]DispersionPoint, 0, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		row := int(rows.At(i))
		if d, ok := rowDispersion(ix, row); ok {
			out = append(out, DispersionPoint{AttackID: s.AttackAt(row).ID(), Value: d})
		}
	}
	return out
}

// rowDispersion is geo.Dispersion over attack row's resolvable bots, to
// rounding, and false when none resolves. It walks the row's id span
// twice, reading each bot's cached unit vector: once for the centroid,
// whose degrees are Center's bit for bit, once for the chord distances
// from it.
func rowDispersion(ix *dataset.BotIndex, row int) (float64, bool) {
	refs := ix.RefsRow(row)
	var c geo.Centroid
	for i := 0; i < refs.Len(); i++ {
		if id := refs.At(i); ix.Resolved(id) {
			c.Add(ix.Point(id))
		}
	}
	center, ok := c.Center()
	if !ok {
		return 0, false
	}
	var sum float64
	for i := 0; i < refs.Len(); i++ {
		if id := refs.At(i); ix.Resolved(id) {
			sum += geo.SignedDistanceCached(center, ix.Point(id))
		}
	}
	return math.Abs(sum), true
}

// DispersionValues strips a series down to its float values, into a
// slice the caller owns.
func DispersionValues(series memo.View[DispersionPoint]) []float64 {
	out := make([]float64, series.Len())
	for i, p := range series.All() {
		out[i] = p.Value
	}
	return out
}

// DispersionProfile is the per-family §IV-A characterization: how often
// the formation is symmetric, and the statistics of the asymmetric part.
// The paper reports both for Pandora and Blackenergy
// (published.Dispersions).
type DispersionProfile struct {
	Family        dataset.Family
	N             int
	SymmetricFrac float64
	// Asymmetric summarizes the values above the symmetry tolerance.
	Asymmetric stats.Summary
}

func profileFromSeries(f dataset.Family, series memo.View[DispersionPoint]) (DispersionProfile, error) {
	if series.Len() == 0 {
		return DispersionProfile{}, fmt.Errorf("core: family %s has no dispersion data", f)
	}
	asym := make([]float64, 0, series.Len())
	symmetric := 0
	for _, p := range series.All() {
		if p.Value <= SymmetryToleranceKm {
			symmetric++
		} else {
			asym = append(asym, p.Value)
		}
	}
	return DispersionProfile{
		Family:        f,
		N:             series.Len(),
		SymmetricFrac: float64(symmetric) / float64(series.Len()),
		Asymmetric:    stats.Summarize(asym),
	}, nil
}

func cdfFromSeries(f dataset.Family, series memo.View[DispersionPoint]) (*stats.ECDF, error) {
	if series.Len() == 0 {
		return nil, fmt.Errorf("core: family %s has no dispersion data", f)
	}
	return stats.NewECDF(DispersionValues(series)), nil
}

func histogramFromSeries(f dataset.Family, series memo.View[DispersionPoint], bins int) (*stats.Histogram, error) {
	asym := make([]float64, 0, series.Len())
	for _, p := range series.All() {
		if p.Value > SymmetryToleranceKm {
			asym = append(asym, p.Value)
		}
	}
	if len(asym) == 0 {
		return nil, fmt.Errorf("core: family %s has no asymmetric dispersion values", f)
	}
	hi := stats.Max(asym) * 1.01
	h, err := stats.NewHistogram(0, hi, bins)
	if err != nil {
		return nil, err
	}
	h.AddAll(asym)
	return h, nil
}

func activeFamiliesFrom(families memo.View[dataset.Family], seriesOf func(dataset.Family) memo.View[DispersionPoint], minPoints int) []dataset.Family {
	type fc struct {
		f dataset.Family
		n int
	}
	var list []fc
	for _, f := range families.All() {
		if n := seriesOf(f).Len(); n >= minPoints {
			list = append(list, fc{f: f, n: n})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].f < list[j].f
	})
	out := make([]dataset.Family, len(list))
	for i, x := range list {
		out[i] = x.f
	}
	return out
}
