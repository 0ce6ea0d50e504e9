package experiments

import (
	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/memo"
	"botscope/internal/stats"
)

// The §III overview products: each is built once, on first use, by
// whichever experiment, handler or library call asks first, and read by
// every later one. A slice leaves the package as a memo.View; the figures
// here read a series' own slice and its held CDF, so the report path
// copies nothing. The structs Daily and TargetCountries return still hold
// shared slices and maps; the library's Analyzer copies those at its
// boundary.

// series is one float series (the gaps of §III-B, the durations of
// §III-C) in chronological order with its summary, or the error the
// summary gave, and its empirical CDF, sorted once on first read: the
// interval and duration figures and the calibration tests all read that
// one sorted copy.
type series[S any] struct {
	xs  []float64
	st  S
	err error
	cdf memo.Lazy[*stats.ECDF]
}

func newSeries[S any](xs []float64, analyze func([]float64) (S, error)) *series[S] {
	st, err := analyze(xs)
	return &series[S]{xs: xs, st: st, err: err}
}

func (p *series[S]) view() (memo.View[float64], S, error) { return memo.ViewOf(p.xs), p.st, p.err }

// CDF returns the series' empirical CDF.
func (p *series[S]) CDF() *stats.ECDF { return p.cdf.Get(p.buildCDF) }

func (p *series[S]) buildCDF() *stats.ECDF { return stats.NewECDF(p.xs) }

type (
	gapSeries = series[core.IntervalStats]
	durSeries = series[core.DurationStats]
)

type dailyProduct struct {
	st  core.DailyStats
	err error
}

// Protocols returns Figure 1's attack-type breakdown.
func (w *Workload) Protocols() memo.View[core.ProtocolCount] {
	return memo.ViewOf(w.protocols.Get(w.buildProtocols))
}

func (w *Workload) buildProtocols() []core.ProtocolCount { return core.ProtocolBreakdown(w.Store) }

// Daily returns Figure 2's daily distribution; its Days (and their maps)
// are shared.
func (w *Workload) Daily() (core.DailyStats, error) {
	d := w.daily.Get(w.buildDaily)
	return d.st, d.err
}

func (w *Workload) buildDaily() dailyProduct {
	st, err := core.DailyDistribution(w.Store)
	return dailyProduct{st, err}
}

// AllIntervals returns the gaps between consecutive attacks across all
// families (Figure 3's "all attacks" curve) with their summary.
func (w *Workload) AllIntervals() (memo.View[float64], core.IntervalStats, error) {
	return w.allGapSeries().view()
}

func (w *Workload) allGapSeries() *gapSeries { return w.allGaps.Get(w.buildAllGaps) }

func (w *Workload) buildAllGaps() *gapSeries {
	return newSeries(core.AllIntervals(w.Store), core.AnalyzeIntervals)
}

// FamilyIntervals returns one family's gap series (Figures 3-5) with its
// summary. Every family's is built in the one pass that the first call
// makes; a family without attacks reads nothing held and adds nothing.
func (w *Workload) FamilyIntervals(f dataset.Family) (memo.View[float64], core.IntervalStats, error) {
	return w.famGapSeries(f).view()
}

func (w *Workload) famGapSeries(f dataset.Family) *gapSeries {
	if p, ok := w.famGaps.Get(w.buildFamGaps)[f]; ok {
		return p
	}
	return newSeries(nil, core.AnalyzeIntervals)
}

func (w *Workload) buildFamGaps() map[dataset.Family]*gapSeries {
	fams := w.Store.Families()
	out := make(map[dataset.Family]*gapSeries, fams.Len())
	for _, f := range fams.All() {
		out[f] = newSeries(core.FamilyIntervals(w.Store, f), core.AnalyzeIntervals)
	}
	return out
}

// Durations returns every attack duration in start order (Figures 6-7)
// with the §III-C summary.
func (w *Workload) Durations() (memo.View[float64], core.DurationStats, error) {
	return w.durSeries().view()
}

func (w *Workload) durSeries() *durSeries { return w.durations.Get(w.buildDurations) }

func (w *Workload) buildDurations() *durSeries {
	return newSeries(core.Durations(w.Store), core.AnalyzeDurations)
}

// TargetCountries returns one family's full Table V country ranking;
// callers cut it with Head. Top is shared. A family without attacks reads
// nothing held and adds nothing.
func (w *Workload) TargetCountries(f dataset.Family) core.TargetCountryProfile {
	if p, ok := w.targets.Get(w.buildTargets)[f]; ok {
		return p
	}
	return core.TargetCountryProfile{Family: f}
}

func (w *Workload) buildTargets() map[dataset.Family]core.TargetCountryProfile {
	fams := w.Store.Families()
	out := make(map[dataset.Family]core.TargetCountryProfile, fams.Len())
	for _, f := range fams.All() {
		out[f] = core.TargetCountries(w.Store, f, 0)
	}
	return out
}
