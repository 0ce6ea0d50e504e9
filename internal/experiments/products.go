package experiments

import (
	"botscope/internal/core"
	"botscope/internal/dataset"
)

// The §III overview products: each is built once, on first use, by
// whichever experiment, handler or library call asks first, and read by
// every later one. Slices and maps inside them are shared and must not be
// modified; the library's Analyzer copies them at its boundary.

// gapProduct is one gap series with its §III-B summary, or the error the
// summary gave.
type gapProduct struct {
	gaps []float64
	st   core.IntervalStats
	err  error
}

func newGapProduct(gaps []float64) gapProduct {
	st, err := core.AnalyzeIntervals(gaps)
	return gapProduct{gaps: gaps, st: st, err: err}
}

type durProduct struct {
	durs []float64
	st   core.DurationStats
	err  error
}

type dailyProduct struct {
	st  core.DailyStats
	err error
}

// Protocols returns Figure 1's attack-type breakdown.
//
//botscope:shared
func (w *Workload) Protocols() []core.ProtocolCount {
	return w.protocols.Get(w.buildProtocols)
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
// families (Figure 3's "all attacks" curve) with their summary. The gap
// slice is shared.
//
//botscope:shared
func (w *Workload) AllIntervals() ([]float64, core.IntervalStats, error) {
	p := w.allGaps.Get(w.buildAllGaps)
	return p.gaps, p.st, p.err
}

func (w *Workload) buildAllGaps() gapProduct { return newGapProduct(core.AllIntervals(w.Store)) }

// FamilyIntervals returns one family's gap series (Figures 3-5) with its
// summary. Every family's is built in the one pass that the first call
// makes; a family without attacks reads nothing held and adds nothing. The
// gap slice is shared.
//
//botscope:shared
func (w *Workload) FamilyIntervals(f dataset.Family) ([]float64, core.IntervalStats, error) {
	p, ok := w.famGaps.Get(w.buildFamGaps)[f]
	if !ok {
		p = newGapProduct(nil)
	}
	return p.gaps, p.st, p.err
}

func (w *Workload) buildFamGaps() map[dataset.Family]gapProduct {
	fams := w.Store.Families()
	out := make(map[dataset.Family]gapProduct, len(fams))
	for _, f := range fams {
		out[f] = newGapProduct(core.FamilyIntervals(w.Store, f))
	}
	return out
}

// Durations returns every attack duration in start order (Figures 6-7)
// with the §III-C summary. The slice is shared.
//
//botscope:shared
func (w *Workload) Durations() ([]float64, core.DurationStats, error) {
	p := w.durations.Get(w.buildDurations)
	return p.durs, p.st, p.err
}

func (w *Workload) buildDurations() durProduct {
	durs := core.Durations(w.Store)
	st, err := core.AnalyzeDurations(durs)
	return durProduct{durs: durs, st: st, err: err}
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
	out := make(map[dataset.Family]core.TargetCountryProfile, len(fams))
	for _, f := range fams {
		out[f] = core.TargetCountries(w.Store, f, 0)
	}
	return out
}
