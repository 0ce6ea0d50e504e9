package experiments

import (
	"fmt"
	"strings"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/monitor"
	"botscope/internal/par"
	"botscope/internal/report"
	"botscope/internal/stats"
	"botscope/internal/timeseries"
)

// Figure1 regenerates the attack-type popularity chart.
func (w *Workload) Figure1() (*Result, error) {
	rows := core.ProtocolBreakdown(w.Store)
	if len(rows) == 0 {
		return nil, fmt.Errorf("no attacks in workload")
	}
	labels := make([]string, len(rows))
	values := make([]float64, len(rows))
	total := 0.0
	for i, r := range rows {
		labels[i] = r.Category.String()
		values[i] = float64(r.Count)
		total += values[i]
	}
	res := &Result{
		ID:    "Figure 1",
		Title: "Popularity of attack types",
		Text:  report.BarChart("Figure 1 — popularity of attack types", labels, values, 50),
	}
	// The paper: HTTP dominates (Table II sums: 47,734/50,704) and most
	// attacks use connection-oriented transports (48,491/50,704).
	res.AddPaperMetric("HTTP share", values[0]/total, 0.941)
	oriented := 0.0
	for i, r := range rows {
		if r.Category.ConnectionOriented() {
			oriented += values[i]
		}
	}
	res.AddPaperMetric("connection-oriented share", oriented/total, 0.956)
	return res, nil
}

// Figure2 regenerates the daily attack distribution.
func (w *Workload) Figure2() (*Result, error) {
	st, err := core.DailyDistribution(w.Store)
	if err != nil {
		return nil, err
	}
	counts := make([]float64, len(st.Days))
	for i, d := range st.Days {
		counts[i] = float64(d.Count)
	}
	var b strings.Builder
	b.WriteString(report.SeriesPanel("Figure 2 — daily attack distribution", counts, 72))
	fmt.Fprintf(&b, "peak day %s with %s attacks, dominated by %s\n",
		st.MaxDay.Format("2006-01-02"), report.FormatInt(st.Max), st.MaxDominantFamily)
	// The figure aggregates multiple families; show each family's activity
	// window (Blackenergy's ~1/3 coverage is a paper observation).
	t := report.NewTable("per-family activity", "family", "attacks", "first", "last", "coverage")
	t.SetAlign(1, report.AlignRight)
	for _, fa := range core.FamilyActivity(w.Store) {
		t.AddRow(string(fa.Family), report.FormatInt(fa.Attacks),
			fa.First.Format("2006-01-02"), fa.Last.Format("2006-01-02"),
			report.PercentString(fa.Coverage))
	}
	b.WriteString(t.String())
	res := &Result{ID: "Figure 2", Title: "Daily attack distribution", Text: b.String()}
	res.AddPaperMetric("average attacks/day", st.Average, 243*w.Scale)
	res.AddPaperMetric("max attacks/day", float64(st.Max), 983*w.Scale)
	if st.MaxDominantFamily == dataset.Dirtjumper {
		res.AddPaperMetric("peak dominated by dirtjumper", 1, 1)
	} else {
		res.AddPaperMetric("peak dominated by dirtjumper", 0, 1)
	}
	return res, nil
}

// Figure3 regenerates the all-vs-family interval CDF comparison.
func (w *Workload) Figure3() (*Result, error) {
	all := core.AllIntervals(w.Store)
	st, err := core.AnalyzeIntervals(all)
	if err != nil {
		return nil, err
	}
	names := []string{"all attacks"}
	cdfs := []*stats.ECDF{core.IntervalCDF(all)}
	var famGaps []float64
	for _, f := range dataset.ActiveFamilies {
		gaps := core.FamilyIntervals(w.Store, f)
		famGaps = append(famGaps, gaps...)
	}
	famStats, err := core.AnalyzeIntervals(famGaps)
	if err != nil {
		return nil, err
	}
	names = append(names, "family-based")
	cdfs = append(cdfs, core.IntervalCDF(famGaps))

	var b strings.Builder
	b.WriteString(report.MultiCDFLandmarks("Figure 3 — attack interval CDF (seconds)",
		names, cdfs, []float64{60, 1081}))
	b.WriteString(report.CDFChart("family-based interval CDF", cdfs[1], 64, 12))
	res := &Result{ID: "Figure 3", Title: "Attack interval CDF", Text: b.String()}
	res.AddPaperMetric("all-attacks concurrent share", st.SimultaneousFrac, 0.55)
	res.AddPaperMetric("family-based concurrent share", famStats.SimultaneousFrac, 0.50)
	// Scaled workloads stretch gaps linearly (same window, fewer attacks);
	// compare against the paper's 1,081 s P80 rescaled accordingly.
	res.AddPaperMetric("family-based P80 (s)", famStats.P80, 1081/w.Scale)
	res.AddPaperMetric("family-based mean (s)", famStats.Mean, 3060/w.Scale)
	return res, nil
}

// Figure4 regenerates the interval-cluster distribution.
func (w *Workload) Figure4() (*Result, error) {
	var famGaps []float64
	for _, f := range dataset.ActiveFamilies {
		famGaps = append(famGaps, core.FamilyIntervals(w.Store, f)...)
	}
	if len(famGaps) == 0 {
		return nil, fmt.Errorf("no intervals in workload")
	}
	clusters := core.ClusterIntervals(famGaps)
	labels := make([]string, len(clusters))
	values := make([]float64, len(clusters))
	var modeMinutes, modeTens, modeHours float64
	for i, c := range clusters {
		labels[i] = c.Label
		values[i] = float64(c.Count)
		switch c.Label {
		case "5-10 min":
			modeMinutes = float64(c.Count)
		case "20-40 min":
			modeTens = float64(c.Count)
		case "1.5-4 hr":
			modeHours = float64(c.Count)
		}
	}
	res := &Result{
		ID:    "Figure 4",
		Title: "Attack interval distributions (non-simultaneous)",
		Text:  report.BarChart("Figure 4 — attack interval clusters", labels, values, 50),
	}
	// The paper's three common modes must all carry mass.
	res.AddMetric("6-7 min mode count", modeMinutes)
	res.AddMetric("20-40 min mode count", modeTens)
	res.AddMetric("2-3 hr mode count", modeHours)
	return res, nil
}

// Figure5 regenerates the per-family interval CDFs.
func (w *Workload) Figure5() (*Result, error) {
	var (
		names []string
		cdfs  []*stats.ECDF
	)
	res := &Result{ID: "Figure 5", Title: "Per-family interval CDF"}
	for _, f := range dataset.ActiveFamilies {
		gaps := core.FamilyIntervals(w.Store, f)
		if len(gaps) == 0 {
			continue
		}
		names = append(names, string(f))
		cdfs = append(cdfs, core.IntervalCDF(gaps))
	}
	if len(cdfs) == 0 {
		return nil, fmt.Errorf("no family intervals")
	}
	res.Text = report.MultiCDFLandmarks("Figure 5 — per-family attack interval CDF (seconds)",
		names, cdfs, []float64{60})
	for i, name := range names {
		frac := cdfs[i].Eval(59.999)
		switch name {
		case string(dataset.Aldibot), string(dataset.Optima):
			// These two families launch nothing within 60 s (paper Fig 5).
			res.AddPaperMetric(name+" share below 60s", frac, 0)
		case string(dataset.Blackenergy):
			res.AddPaperMetric(name+" share below 60s", frac, 0.40)
		case string(dataset.Dirtjumper):
			res.AddPaperMetric(name+" share below 60s", frac, 0.55)
		}
	}
	return res, nil
}

// Figure6 regenerates the duration-over-time panel.
func (w *Workload) Figure6() (*Result, error) {
	durs := core.Durations(w.Store)
	if len(durs) == 0 {
		return nil, fmt.Errorf("no durations")
	}
	st, err := core.AnalyzeDurations(durs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "Figure 6",
		Title: "Attack durations over time",
		Text:  report.SeriesPanel("Figure 6 — attack durations over time (seconds)", durs, 72),
	}
	res.AddPaperMetric("mean duration (s)", st.Mean, 10308)
	res.AddPaperMetric("median duration (s)", st.Median, 1766)
	res.AddPaperMetric("std duration (s)", st.StdDev, 18475)
	return res, nil
}

// Figure7 regenerates the duration CDF with the Mao et al. baseline.
func (w *Workload) Figure7() (*Result, error) {
	durs := core.Durations(w.Store)
	if len(durs) == 0 {
		return nil, fmt.Errorf("no durations")
	}
	st, err := core.AnalyzeDurations(durs)
	if err != nil {
		return nil, err
	}
	ours := core.DurationCDF(durs)
	base := core.DurationCDF(core.BaselineDurations(0))
	var b strings.Builder
	b.WriteString(report.MultiCDFLandmarks("Figure 7 — duration distribution CDF (seconds)",
		[]string{"botscope workload", "single-ISP baseline [24]"},
		[]*stats.ECDF{ours, base}, []float64{60, 4500, 13882}))
	b.WriteString(report.CDFChart("duration CDF", ours, 64, 12))
	res := &Result{ID: "Figure 7", Title: "Duration CDF vs baseline", Text: b.String()}
	res.AddPaperMetric("share under 4 hours", st.FracUnder4h, 0.8)
	res.AddPaperMetric("share under 60 s", st.FracUnder60s, 0.10)
	res.AddPaperMetric("P80 duration (s)", st.P80, 13882)
	res.AddPaperMetric("baseline share under 1.25 h", base.Eval(1.25*3600), 0.8)
	return res, nil
}

// Figure8 regenerates the weekly source shift patterns.
func (w *Workload) Figure8() (*Result, error) {
	type weekAgg struct {
		existing int
		fresh    int
	}
	agg := make(map[int]*weekAgg)
	// The per-family weekly scans are independent; shard them and merge in
	// family order (integer sums, so the merge order cannot change totals).
	famWeeks := par.Map(0, len(dataset.ActiveFamilies), func(i int) []monitor.WeekStats {
		weeks, err := w.collector.WeeklySources(dataset.ActiveFamilies[i])
		if err != nil {
			return nil
		}
		return weeks
	})
	for _, weeks := range famWeeks {
		for _, wk := range weeks {
			a := agg[wk.Week]
			if a == nil {
				a = &weekAgg{}
				agg[wk.Week] = a
			}
			existing, fresh := wk.Shifts()
			a.existing += existing
			a.fresh += fresh
		}
	}
	if len(agg) == 0 {
		return nil, fmt.Errorf("no weekly source data")
	}
	maxWeek := 0
	for wk := range agg {
		if wk > maxWeek {
			maxWeek = wk
		}
	}
	var (
		labels               []string
		existVals, freshVals []float64
		totalExist, totalNew float64
	)
	for wk := 0; wk <= maxWeek; wk++ {
		a := agg[wk]
		if a == nil {
			a = &weekAgg{}
		}
		labels = append(labels, fmt.Sprintf("week %02d", wk))
		existVals = append(existVals, float64(a.existing))
		freshVals = append(freshVals, float64(a.fresh))
		totalExist += float64(a.existing)
		totalNew += float64(a.fresh)
	}
	var b strings.Builder
	b.WriteString(report.BarChart("Figure 8 — weekly shifts into existing countries", labels, existVals, 40))
	b.WriteString(report.BarChart("Figure 8 — weekly shifts into new countries", labels, freshVals, 40))
	res := &Result{ID: "Figure 8", Title: "Weekly source shift patterns", Text: b.String()}
	// The paper: existing-country shifts dwarf new-country shifts by about
	// an order of magnitude (left axis 1e4, right axis 1e3).
	ratio := totalExist / (totalNew + 1)
	res.AddPaperMetric("existing/new shift ratio", ratio, 10)
	res.AddMetric("total existing-country bot shifts", totalExist)
	res.AddMetric("total new-country bot shifts", totalNew)
	return res, nil
}

// Figure9 regenerates the per-family dispersion CDFs.
func (w *Workload) Figure9() (*Result, error) {
	fams := w.Disp().ActiveFamilies(10)
	if len(fams) > 6 {
		fams = fams[:6] // the paper reports the six most active
	}
	if len(fams) == 0 {
		return nil, fmt.Errorf("no family has 10+ dispersion points")
	}
	var (
		names []string
		cdfs  []*stats.ECDF
	)
	for _, f := range fams {
		cdf, err := w.Disp().CDF(f)
		if err != nil {
			continue
		}
		names = append(names, string(f))
		cdfs = append(cdfs, cdf)
	}
	res := &Result{
		ID:    "Figure 9",
		Title: "Geolocation dispersion CDF per family",
		Text: report.MultiCDFLandmarks("Figure 9 — geolocation dispersion CDF (km)",
			names, cdfs, []float64{core.SymmetryToleranceKm}),
	}
	for i, name := range names {
		frac := cdfs[i].Eval(core.SymmetryToleranceKm)
		switch name {
		case string(dataset.Dirtjumper), string(dataset.Pandora):
			// ">40% of distances at zero" for these two families.
			res.AddPaperMetric(name+" symmetric share", frac, 0.4)
		default:
			res.AddMetric(name+" symmetric share", frac)
		}
	}
	return res, nil
}

// dispersionHistogram builds the Figs 10/11 result for one family.
func (w *Workload) dispersionHistogram(id string, f dataset.Family, paperMean, paperSymmetric float64) (*Result, error) {
	prof, err := w.Disp().Profile(f)
	if err != nil {
		return nil, err
	}
	h, err := w.Disp().Histogram(f, 12)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s geolocation dispersion histogram (asymmetric values, km)\n", id, f)
	fmt.Fprintf(&b, "symmetric share removed: %s\n", report.PercentString(prof.SymmetricFrac))
	b.WriteString(report.HistogramChart("", h, 50))
	res := &Result{ID: id, Title: fmt.Sprintf("%s dispersion histogram", f), Text: b.String()}
	res.AddPaperMetric("asymmetric mean (km)", prof.Asymmetric.Mean, paperMean)
	res.AddPaperMetric("symmetric share", prof.SymmetricFrac, paperSymmetric)
	return res, nil
}

// Figure10 regenerates Pandora's dispersion histogram.
func (w *Workload) Figure10() (*Result, error) {
	return w.dispersionHistogram("Figure 10", dataset.Pandora, 566, 0.767)
}

// Figure11 regenerates Blackenergy's dispersion histogram.
func (w *Workload) Figure11() (*Result, error) {
	return w.dispersionHistogram("Figure 11", dataset.Blackenergy, 4304, 0.895)
}

// dispersionPrediction builds the Figs 12/13 result for one family.
func (w *Workload) dispersionPrediction(id string, f dataset.Family, paperSim float64) (*Result, error) {
	cfg := core.PredictConfig{
		Order:      timeseries.Order{P: 1},
		TestPoints: int(2700 * w.Scale),
	}
	if cfg.TestPoints < 20 {
		cfg.TestPoints = 20
	}
	pred, err := w.Disp().Predict(f, cfg)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s geolocation distance prediction (%s)\n", id, f, pred.Order)
	b.WriteString(report.SeriesPanel("ground truth (km)", pred.Truth, 72))
	b.WriteString(report.SeriesPanel("prediction (km)", pred.Predicted, 72))
	b.WriteString(report.SeriesPanel("absolute error (km)", pred.Errors, 72))
	res := &Result{ID: id, Title: fmt.Sprintf("%s dispersion prediction", f), Text: b.String()}
	res.AddPaperMetric("cosine similarity", pred.Similarity, paperSim)
	res.AddMetric("mean abs error (km)", stats.Mean(pred.Errors))
	return res, nil
}

// Figure12 regenerates Pandora's prediction panels.
func (w *Workload) Figure12() (*Result, error) {
	return w.dispersionPrediction("Figure 12", dataset.Pandora, 0.946)
}

// Figure13 regenerates Blackenergy's prediction panels.
func (w *Workload) Figure13() (*Result, error) {
	return w.dispersionPrediction("Figure 13", dataset.Blackenergy, 0.960)
}

// Figure14 regenerates the Pandora organization-level hotspot map
// (February 2013 in the paper).
func (w *Workload) Figure14() (*Result, error) {
	feb := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	mar := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	hs := core.OrgHotspots(w.Store, dataset.Pandora, feb, mar)
	if len(hs) == 0 {
		// Scaled workloads may leave February thin; fall back to the full
		// window, as the figure's purpose is the hotspot structure.
		hs = core.OrgHotspots(w.Store, dataset.Pandora, time.Time{}, time.Time{})
	}
	if len(hs) == 0 {
		return nil, fmt.Errorf("no pandora organization hotspots")
	}
	lats := make([]float64, len(hs))
	lons := make([]float64, len(hs))
	weights := make([]float64, len(hs))
	for i, h := range hs {
		lats[i] = h.Point.Lat
		lons[i] = h.Point.Lon
		weights[i] = float64(h.Attacks)
	}
	var b strings.Builder
	b.WriteString(report.WorldMap("Figure 14 — pandora target organizations (size = attacks)", lats, lons, weights, 72, 22))
	top := hs
	if len(top) > 8 {
		top = top[:8]
	}
	t := report.NewTable("top organizations", "organization", "cc", "city", "attacks")
	t.SetAlign(3, report.AlignRight)
	for _, h := range top {
		t.AddRow(h.Org, h.CC, h.City, report.FormatInt(h.Attacks))
	}
	b.WriteString(t.String())
	res := &Result{ID: "Figure 14", Title: "Pandora organization-level hotspots", Text: b.String()}
	res.AddMetric("organizations attacked", float64(len(hs)))
	res.AddMetric("top hotspot attacks", float64(hs[0].Attacks))
	// RU and US hotspots dominate in the paper.
	ruus := 0
	for _, h := range hs {
		if h.CC == "RU" || h.CC == "US" {
			ruus += h.Attacks
		}
	}
	total := 0
	for _, h := range hs {
		total += h.Attacks
	}
	res.AddMetric("share of attacks on RU+US orgs", float64(ruus)/float64(total))
	return res, nil
}

// Figure15 regenerates the Dirtjumper intra-family collaboration view.
func (w *Workload) Figure15() (*Result, error) {
	st := core.AnalyzeCollaborationsFrom(w.Collabs())
	var events []*core.Collaboration
	for _, c := range st.Collaborations {
		if c.Intra() && c.Families[0] == dataset.Dirtjumper {
			events = append(events, c)
		}
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("no dirtjumper intra-family collaborations")
	}
	totBotnets := 0
	magEqual := 0
	t := report.NewTable("Figure 15 — dirtjumper intra-family collaborations (first rows)",
		"date", "target", "botnets", "magnitudes")
	for i, c := range events {
		mags := make([]string, len(c.Attacks))
		equal := true
		for j, a := range c.Attacks {
			mags[j] = report.FormatInt(a.Magnitude())
			if a.Magnitude() != c.Attacks[0].Magnitude() {
				equal = false
			}
		}
		totBotnets += c.Botnets()
		if equal {
			magEqual++
		}
		if i < 12 {
			t.AddRow(c.Start.Format("2006-01-02"), c.Target,
				report.FormatInt(c.Botnets()), strings.Join(mags, "/"))
		}
	}
	res := &Result{ID: "Figure 15", Title: "Dirtjumper intra-family collaborations", Text: t.String()}
	res.AddPaperMetric("collaborations", float64(len(events)), 756*w.Scale)
	res.AddPaperMetric("mean botnets per collaboration", float64(totBotnets)/float64(len(events)), 2.19)
	// "for most bars along the same timestamp, they have the same height".
	res.AddMetric("share with equal magnitudes", float64(magEqual)/float64(len(events)))
	return res, nil
}

// Figure16 regenerates the Dirtjumper-Pandora inter-family analysis.
func (w *Workload) Figure16() (*Result, error) {
	pair := core.AnalyzePairFrom(w.Collabs(), dataset.Dirtjumper, dataset.Pandora)
	if pair.Count == 0 {
		return nil, fmt.Errorf("no dirtjumper-pandora collaborations")
	}
	var durA, durB, mags []float64
	for _, c := range pair.Events {
		for _, a := range c.Attacks {
			switch a.Family {
			case dataset.Dirtjumper:
				durA = append(durA, a.Duration().Seconds())
			case dataset.Pandora:
				durB = append(durB, a.Duration().Seconds())
			}
			mags = append(mags, float64(a.Magnitude()))
		}
	}
	var b strings.Builder
	b.WriteString("Figure 16 — dirtjumper x pandora collaborations\n")
	b.WriteString(report.SeriesPanel("dirtjumper durations (s)", durA, 60))
	b.WriteString(report.SeriesPanel("pandora durations (s)", durB, 60))
	b.WriteString(report.SeriesPanel("attack magnitudes (bots)", mags, 60))
	t := report.NewTable("pair summary", "quantity", "value")
	t.AddRow("collaborations", report.FormatInt(pair.Count))
	t.AddRow("unique targets", report.FormatInt(pair.UniqueTargets))
	t.AddRow("countries", report.FormatInt(pair.Countries))
	t.AddRow("organizations", report.FormatInt(pair.Organizations))
	t.AddRow("ASes", report.FormatInt(pair.ASNs))
	t.AddRow("span", fmt.Sprintf("%.1f weeks", pair.Span.Hours()/(24*7)))
	b.WriteString(t.String())
	res := &Result{ID: "Figure 16", Title: "Dirtjumper x Pandora collaborations", Text: b.String()}
	res.AddPaperMetric("collaborations", float64(pair.Count), 118*w.Scale)
	res.AddPaperMetric("unique targets", float64(pair.UniqueTargets), 96*w.Scale)
	res.AddPaperMetric("pandora mean duration (s)", pair.MeanDurationB, 6420)
	res.AddPaperMetric("dirtjumper mean duration (s)", pair.MeanDurationA, 5083)
	res.AddPaperMetric("span (weeks)", pair.Span.Hours()/(24*7), 16)
	return res, nil
}

// Figure17 regenerates the consecutive-attack gap CDF.
func (w *Workload) Figure17() (*Result, error) {
	st := w.Chains()
	if len(st.Chains) == 0 {
		return nil, fmt.Errorf("no multistage chains")
	}
	cdf := core.GapCDF(st.Chains)
	var b strings.Builder
	b.WriteString(report.CDFChart("Figure 17 — consecutive attack gap CDF (seconds)", cdf, 64, 12))
	res := &Result{ID: "Figure 17", Title: "Consecutive attack gap CDF", Text: b.String()}
	res.AddPaperMetric("share within 10 s", st.FracWithin10s, 0.65)
	res.AddPaperMetric("share within 30 s", st.FracWithin30s, 0.80)
	res.AddMetric("chains", float64(len(st.Chains)))
	return res, nil
}

// Figure18 regenerates the consecutive-attack timeline.
func (w *Workload) Figure18() (*Result, error) {
	st := w.Chains()
	if len(st.Chains) == 0 {
		return nil, fmt.Errorf("no multistage chains")
	}
	events := core.ChainEvents(st.Chains)
	t := report.NewTable("Figure 18 — consecutive attacks over time (first rows)",
		"start", "family", "target", "magnitude")
	t.SetAlign(3, report.AlignRight)
	for i, e := range events {
		if i >= 15 {
			break
		}
		t.AddRow(e.Start.Format("2006-01-02 15:04:05"), string(e.Family), e.Target, report.FormatInt(e.Magnitude))
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "chain families: ")
	for i, f := range st.Families {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(f))
	}
	b.WriteByte('\n')
	if st.Longest != nil {
		fmt.Fprintf(&b, "longest chain: %d attacks by %s lasting %s\n",
			st.Longest.Length(), st.Longest.Family, st.Longest.Duration().Round(time.Second))
	}
	res := &Result{ID: "Figure 18", Title: "Consecutive attacks over time", Text: b.String()}
	res.AddMetric("chain events", float64(len(events)))
	res.AddPaperMetric("longest chain length", float64(st.Longest.Length()), 22)
	return res, nil
}
