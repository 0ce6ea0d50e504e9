package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"botscope/internal/core"
	"botscope/internal/published"
	"botscope/internal/report"
	"botscope/internal/stats"
	"botscope/internal/timeseries"
)

// This file holds the extension experiments: analyses the paper proposes
// as insights or future work but does not itself evaluate. They are part
// of All(), so cmd/botreport and the benches cover them too.

// ExtCalibration checks the generated workload's distribution shapes
// against their calibration targets with two-sample KS and Wasserstein
// statistics — a self-test of the substitution argument in DESIGN.md.
func (w *Workload) ExtCalibration() (*Result, error) {
	durs := w.feedProducts().durs.CDF()
	if durs.N() == 0 {
		return nil, fmt.Errorf("no durations")
	}
	// Reference: the §III-C lognormal law (median
	// published.DurationMedianSec, sigma 1.9), deterministically
	// quantile-sampled like the Fig 7 baseline.
	ref := stats.NewECDF(lognormalQuantiles(durs.N(), published.DurationMedianSec, 1.9))
	ks, err := stats.KolmogorovSmirnov(durs, ref)
	if err != nil {
		return nil, err
	}
	w1, err := stats.WassersteinDistance(durs, ref)
	if err != nil {
		return nil, err
	}

	t := report.NewTable("Extension — calibration self-test", "check", "value")
	t.AddRow("duration KS statistic vs lognormal target", fmt.Sprintf("%.4f", ks))
	t.AddRow("duration W1 distance (s)", report.FormatFloat(w1, 1))
	t.AddRow("duration sample size", report.FormatInt(durs.N()))

	res := &Result{ID: "Ext: Calibration", Title: "Workload calibration self-test", Text: t.String()}
	res.AddMetric("duration KS statistic", ks)
	res.AddMetric("duration W1 distance (s)", w1)
	return res, nil
}

// lognormalQuantiles deterministically samples n quantiles of a lognormal
// distribution, truncated like the generator's duration law.
func lognormalQuantiles(n int, median, sigma float64) []float64 {
	out := core.BaselineDurations(n) // baseline is lognormal(900, 1.912)...
	// ...rescale to the requested law: x -> median * (x/900)^(sigma/1.912).
	for i, x := range out {
		out[i] = median * math.Pow(x/900, sigma/1.912)
		if out[i] > 260000 {
			out[i] = 260000
		}
	}
	return out
}

// ExtDefense trains the §V blacklist on the first half of the window and
// scores it on the second half.
func (w *Workload) ExtDefense() (*Result, error) {
	first, last, ok := w.Store.TimeBounds()
	if !ok {
		return nil, fmt.Errorf("empty workload")
	}
	split := first.Add(last.Sub(first) / 2)
	bl, err := core.BuildBlacklist(w.Store, time.Time{}, split, 0)
	if err != nil {
		return nil, err
	}
	ev, err := core.EvaluateBlacklist(w.Store, bl, split, time.Time{})
	if err != nil {
		return nil, err
	}
	capped := bl.Truncate(10000)
	evCapped, err := core.EvaluateBlacklist(w.Store, capped, split, time.Time{})
	if err != nil {
		return nil, err
	}

	t := report.NewTable("Extension — history-based blacklist (train: first half, eval: second half)",
		"blacklist", "size", "future-source coverage", "attacks blunted")
	t.SetAlign(1, report.AlignRight)
	t.AddRow("unbounded", report.FormatInt(bl.Len()),
		report.PercentString(ev.BotCoverage), report.PercentString(ev.AttacksBlunted))
	t.AddRow("top-10k", report.FormatInt(capped.Len()),
		report.PercentString(evCapped.BotCoverage), report.PercentString(evCapped.AttacksBlunted))

	res := &Result{ID: "Ext: Defense", Title: "Blacklist effectiveness on future attacks", Text: t.String()}
	res.AddMetric("future-source coverage", ev.BotCoverage)
	res.AddMetric("attacks blunted", ev.AttacksBlunted)
	res.AddMetric("top-10k coverage", evCapped.BotCoverage)
	return res, nil
}

// ExtTransfer evaluates the paper's cross-family claim: dispersion models
// fitted on one family applied unchanged to others.
func (w *Workload) ExtTransfer() (*Result, error) {
	fams := w.Disp().ActiveFamilies(120)
	if len(fams) > 4 {
		fams = fams[:4]
	}
	results := w.Disp().TransferMatrix(fams, timeseries.Order{P: 1}, 120)
	if len(results) == 0 {
		return nil, fmt.Errorf("no family pair has enough dispersion data")
	}
	t := report.NewTable("Extension — cross-family model transfer (dispersion, ARIMA(1,0,0))",
		"source -> target", "transfer sim", "native sim", "retention")
	for i := 1; i <= 3; i++ {
		t.SetAlign(i, report.AlignRight)
	}
	var retSum float64
	for _, r := range results {
		t.AddRow(string(r.Source)+" -> "+string(r.Target),
			fmt.Sprintf("%.3f", r.TransferSimilarity),
			fmt.Sprintf("%.3f", r.NativeSimilarity),
			fmt.Sprintf("%.3f", r.Retention))
		retSum += r.Retention
	}
	res := &Result{ID: "Ext: Transfer", Title: "Cross-family model transfer", Text: t.String()}
	res.AddMetric("pairs evaluated", float64(len(results)))
	res.AddMetric("mean retention", retSum/float64(len(results)))
	return res, nil
}

// ExtDiurnal regenerates the §III-A claim that attack timing shows no
// diurnal pattern, by scoring hour-of-day concentration against a
// canonical user-driven reference profile.
func (w *Workload) ExtDiurnal() (*Result, error) {
	res0, err := core.AnalyzeDiurnal(w.Store)
	if err != nil {
		return nil, err
	}
	labels := make([]string, 24)
	values := make([]float64, 24)
	for h := 0; h < 24; h++ {
		labels[h] = fmt.Sprintf("%02d:00", h)
		values[h] = float64(res0.HourCounts[h])
	}
	var b strings.Builder
	b.WriteString(report.BarChart("Extension — attacks per hour of day (UTC)", labels, values, 40))
	fmt.Fprintf(&b, "hour concentration %.3f vs user-traffic reference %.3f; diurnal: %v\n",
		res0.HourScore, res0.ReferenceHourScore, res0.Diurnal)
	res := &Result{ID: "Ext: Diurnal", Title: "Timing shows no diurnal pattern", Text: b.String()}
	res.AddMetric("hour concentration score", res0.HourScore)
	res.AddMetric("weekday concentration score", res0.WeekdayScore)
	res.AddMetric("reference (diurnal) score", res0.ReferenceHourScore)
	// The paper claim holds when the workload scores well below diurnal
	// traffic: encode "not diurnal" as 1.
	diurnal := 0.0
	if !res0.Diurnal {
		diurnal = 1
	}
	res.AddPaperMetric("no diurnal pattern", diurnal, 1)
	return res, nil
}

// ExtLoad regenerates the §II-B concurrent-load observation. The paper's
// "simultaneous attacks on average" is its daily launch count
// (published.DailyMean), not a concurrency; the sweep-line here measures
// true concurrency and cross-checks it against Little's law
// (active = launch rate x mean duration).
func (w *Workload) ExtLoad() (*Result, error) {
	load := w.feedProducts()
	if load.loadErr != nil {
		return nil, load.loadErr
	}
	st := load.load
	daily, err := w.Daily()
	if err != nil {
		return nil, err
	}
	_, durStats, err := w.Durations()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString(report.SeriesPanel("Extension — concurrently active attacks over time", load.active, 72))
	fmt.Fprintf(&b, "peak %s active attacks at %s\n",
		report.FormatInt(st.Peak), st.PeakTime.Format("2006-01-02 15:04"))
	littles := daily.Average / 86400 * durStats.Mean
	fmt.Fprintf(&b, "Little's law check: %.1f/day x %.0fs mean duration -> %.1f expected active (measured %.1f)\n",
		daily.Average, durStats.Mean, littles, st.TimeWeightedMean)
	res := &Result{ID: "Ext: Load", Title: "Concurrent attack load", Text: b.String()}
	res.AddMetric("mean concurrently active attacks", st.TimeWeightedMean)
	res.AddMetric("little's-law expectation", littles)
	res.AddMetric("peak simultaneous attacks", float64(st.Peak))
	res.AddPaperMetric("daily launches (the paper's 243)", daily.Average, published.DailyMean*w.Scale)
	return res, nil
}
