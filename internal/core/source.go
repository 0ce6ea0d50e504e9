package core

import (
	"fmt"
	"sort"

	"botscope/internal/dataset"
	"botscope/internal/geo"
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
// array load instead of a map lookup, its trigonometry is precomputed,
// and one scratch buffer serves every attack in the family — the loop
// allocates nothing beyond the result slice once the scratch has grown to
// the largest formation.
func DispersionSeries(s *dataset.Store, f dataset.Family) []DispersionPoint {
	rows := s.RowsByFamily(f)
	ix := s.BotDense()
	out := make([]DispersionPoint, 0, len(rows))
	var scratch []geo.CachedPoint
	for _, row := range rows {
		scratch = appendRowPoints(scratch[:0], ix, int(row))
		if len(scratch) == 0 {
			continue
		}
		d, ok := geo.DispersionCached(scratch)
		if !ok {
			continue
		}
		out = append(out, DispersionPoint{AttackID: s.AttackAt(int(row)).ID(), Value: d})
	}
	return out
}

// appendRowPoints appends attack row i's resolvable bot locations to
// dst, in source order — the column-cursor equivalent of the old
// record-keyed appendBotPoints, so the scan never touches the record
// face.
func appendRowPoints(dst []geo.CachedPoint, ix *dataset.BotIndex, row int) []geo.CachedPoint {
	for _, id := range ix.RefsRow(row) {
		if ix.Resolved(id) {
			dst = append(dst, ix.Point(id))
		}
	}
	return dst
}

// DispersionValues strips a series down to its float values.
func DispersionValues(series []DispersionPoint) []float64 {
	out := make([]float64, len(series))
	for i, p := range series {
		out[i] = p.Value
	}
	return out
}

// DispersionProfile is the per-family §IV-A characterization: how often
// the formation is symmetric, and the statistics of the asymmetric part.
// The paper reports Pandora 76.7% symmetric with asymmetric mean ~566 km,
// and Blackenergy 89.5% symmetric with asymmetric mean ~4,304 km.
type DispersionProfile struct {
	Family        dataset.Family
	N             int
	SymmetricFrac float64
	// Asymmetric summarizes the values above the symmetry tolerance.
	Asymmetric stats.Summary
}

func profileFromSeries(f dataset.Family, series []DispersionPoint) (DispersionProfile, error) {
	if len(series) == 0 {
		return DispersionProfile{}, fmt.Errorf("core: family %s has no dispersion data", f)
	}
	asym := make([]float64, 0, len(series))
	symmetric := 0
	for _, p := range series {
		if p.Value <= SymmetryToleranceKm {
			symmetric++
		} else {
			asym = append(asym, p.Value)
		}
	}
	return DispersionProfile{
		Family:        f,
		N:             len(series),
		SymmetricFrac: float64(symmetric) / float64(len(series)),
		Asymmetric:    stats.Summarize(asym),
	}, nil
}

func cdfFromSeries(f dataset.Family, series []DispersionPoint) (*stats.ECDF, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("core: family %s has no dispersion data", f)
	}
	return stats.NewECDF(DispersionValues(series)), nil
}

func histogramFromSeries(f dataset.Family, series []DispersionPoint, bins int) (*stats.Histogram, error) {
	asym := make([]float64, 0, len(series))
	for _, p := range series {
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

func activeFamiliesFrom(families []dataset.Family, seriesOf func(dataset.Family) []DispersionPoint, minPoints int) []dataset.Family {
	type fc struct {
		f dataset.Family
		n int
	}
	var list []fc
	for _, f := range families {
		if n := len(seriesOf(f)); n >= minPoints {
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
