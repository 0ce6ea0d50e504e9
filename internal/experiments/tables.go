package experiments

import (
	"fmt"
	"sort"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/report"
	"botscope/internal/timeseries"
)

// TableII regenerates the per-(protocol, family) attack counts.
func (w *Workload) TableII() (*Result, error) {
	rows := core.FamilyProtocolTable(w.Store)
	if len(rows) == 0 {
		return nil, fmt.Errorf("no attacks in workload")
	}
	t := report.NewTable("Table II — protocol preferences of each botnet family",
		"protocol", "family", "attacks")
	t.SetAlign(2, report.AlignRight)
	for _, r := range rows {
		t.AddRow(r.Category.String(), string(r.Family), report.FormatInt(r.Count))
	}
	res := &Result{ID: "Table II", Title: "Protocol preferences per family", Text: t.String()}

	// Paper values scale with the workload.
	counts := make(map[string]float64)
	for _, r := range rows {
		counts[r.Category.String()+"/"+string(r.Family)] = float64(r.Count)
	}
	paper := []struct {
		key  string
		want float64
	}{
		{key: "HTTP/dirtjumper", want: 34620},
		{key: "HTTP/pandora", want: 6906},
		{key: "HTTP/blackenergy", want: 3048},
		{key: "UNDETERMINED/darkshell", want: 1530},
		{key: "TCP/nitol", want: 345},
		{key: "UDP/yzf", want: 187},
		{key: "UDP/ddoser", want: 126},
		{key: "SYN/blackenergy", want: 31},
	}
	for _, p := range paper {
		res.AddPaperMetric(p.key, counts[p.key], p.want*w.Scale)
	}
	return res, nil
}

// TableIII regenerates the workload summary counts.
func (w *Workload) TableIII() (*Result, error) {
	sum := w.Store.Summary()
	if sum.Attacks == 0 {
		return nil, fmt.Errorf("no attacks in workload")
	}
	t := report.NewTable("Table III — summary of the workload information",
		"side", "description", "count")
	t.SetAlign(2, report.AlignRight)
	t.AddRow("attackers", "# of bot_ips", report.FormatInt(sum.BotIPs))
	t.AddRow("attackers", "# of cities", report.FormatInt(sum.SourceCities))
	t.AddRow("attackers", "# of countries", report.FormatInt(sum.SourceCountries))
	t.AddRow("attackers", "# of organizations", report.FormatInt(sum.SourceOrgs))
	t.AddRow("attackers", "# of asn", report.FormatInt(sum.SourceASNs))
	t.AddRow("attackers", "# of ddos_id", report.FormatInt(sum.Attacks))
	t.AddRow("attackers", "# of botnet_id", report.FormatInt(sum.Botnets))
	t.AddRow("attackers", "# of traffic types", report.FormatInt(sum.TrafficTypes))
	t.AddRow("victims", "# of target_ip", report.FormatInt(sum.TargetIPs))
	t.AddRow("victims", "# of cities", report.FormatInt(sum.TargetCities))
	t.AddRow("victims", "# of countries", report.FormatInt(sum.TargetCountries))
	t.AddRow("victims", "# of organizations", report.FormatInt(sum.TargetOrgs))
	t.AddRow("victims", "# of asn", report.FormatInt(sum.TargetASNs))

	res := &Result{ID: "Table III", Title: "Workload summary", Text: t.String()}
	res.AddPaperMetric("attacks", float64(sum.Attacks), 50704*w.Scale)
	res.AddPaperMetric("botnets", float64(sum.Botnets), 674*w.Scale)
	res.AddPaperMetric("bot IPs", float64(sum.BotIPs), 310950*w.Scale)
	res.AddPaperMetric("target IPs", float64(sum.TargetIPs), 9026*w.Scale)
	res.AddPaperMetric("target countries", float64(sum.TargetCountries), 84)
	res.AddPaperMetric("target orgs", float64(sum.TargetOrgs), 1074*w.Scale)
	res.AddPaperMetric("traffic types", float64(sum.TrafficTypes), 7)
	return res, nil
}

// TableIV regenerates the geolocation-dispersion prediction statistics.
func (w *Workload) TableIV() (*Result, error) {
	// The paper evaluates on the last 2,700 points of each family series
	// and skips families with too little data (Darkshell).
	cfg := core.PredictConfig{
		Order:      timeseries.Order{P: 1},
		TestPoints: int(2700 * w.Scale),
	}
	if cfg.TestPoints < 20 {
		cfg.TestPoints = 20
	}
	results := w.Disp().PredictAll(cfg)
	if len(results) == 0 {
		return nil, fmt.Errorf("no family had enough dispersion data")
	}
	t := report.NewTable("Table IV — geolocation distance prediction statistics",
		"family", "group", "mean", "std", "similarity")
	for i := 2; i <= 4; i++ {
		t.SetAlign(i, report.AlignRight)
	}
	res := &Result{ID: "Table IV", Title: "Dispersion prediction per family"}
	paperSim := map[dataset.Family]float64{
		dataset.Blackenergy: 0.960,
		dataset.Pandora:     0.946,
		dataset.Dirtjumper:  0.848,
		dataset.Optima:      0.941,
		dataset.Colddeath:   0.809,
	}
	for _, r := range results {
		t.AddRow(string(r.Family), "prediction",
			report.FormatFloat(r.MeanPred, 1), report.FormatFloat(r.StdPred, 1),
			fmt.Sprintf("%.3f", r.Similarity))
		t.AddRow("", "ground truth",
			report.FormatFloat(r.MeanTruth, 1), report.FormatFloat(r.StdTruth, 1), "")
		if paper, ok := paperSim[r.Family]; ok {
			res.AddPaperMetric("similarity "+string(r.Family), r.Similarity, paper)
		} else {
			res.AddMetric("similarity "+string(r.Family), r.Similarity)
		}
	}
	res.Text = t.String()
	return res, nil
}

// TableV regenerates the per-family top target countries.
func (w *Workload) TableV() (*Result, error) {
	t := report.NewTable("Table V — country-level DDoS target statistics",
		"family", "countries", "top 5", "count")
	t.SetAlign(1, report.AlignRight)
	t.SetAlign(3, report.AlignRight)
	res := &Result{ID: "Table V", Title: "Top target countries per family"}
	for _, f := range dataset.ActiveFamilies {
		prof := core.TargetCountries(w.Store, f, 5)
		if prof.Countries == 0 {
			continue
		}
		for i, cc := range prof.Top {
			famCell, cntCell := "", ""
			if i == 0 {
				famCell = string(f)
				cntCell = report.FormatInt(prof.Countries)
			}
			t.AddRow(famCell, cntCell, cc.CC, report.FormatInt(cc.Count))
		}
	}
	global := core.GlobalTargetCountries(w.Store, 5)
	if len(global) == 0 {
		return nil, fmt.Errorf("no attacks in workload")
	}
	res.Text = t.String()
	paperGlobal := map[string]float64{
		"US": 13738, "RU": 11451, "DE": 5048, "UA": 4078, "NL": 2816,
	}
	for _, g := range global {
		if paper, ok := paperGlobal[g.CC]; ok {
			res.AddPaperMetric("global attacks on "+g.CC, float64(g.Count), paper*w.Scale)
		} else {
			res.AddMetric("global attacks on "+g.CC, float64(g.Count))
		}
	}
	res.AddPaperMetric("dirtjumper target countries",
		float64(core.TargetCountries(w.Store, dataset.Dirtjumper, 0).Countries), 71)
	return res, nil
}

// TableVI regenerates the collaboration statistics.
func (w *Workload) TableVI() (*Result, error) {
	st := core.AnalyzeCollaborationsFrom(w.Collabs())
	t := report.NewTable("Table VI — botnets collaboration statistics",
		"family", "intra-family", "inter-family")
	t.SetAlign(1, report.AlignRight)
	t.SetAlign(2, report.AlignRight)
	fams := make([]dataset.Family, 0, len(st.Intra)+len(st.Inter))
	seen := make(map[dataset.Family]bool)
	for f := range st.Intra {
		if !seen[f] {
			fams = append(fams, f)
			seen[f] = true
		}
	}
	for f := range st.Inter {
		if !seen[f] {
			fams = append(fams, f)
			seen[f] = true
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
	for _, f := range fams {
		t.AddRow(string(f), report.FormatInt(st.Intra[f]), report.FormatInt(st.Inter[f]))
	}
	res := &Result{ID: "Table VI", Title: "Intra-/inter-family collaborations", Text: t.String()}

	paperIntra := []struct {
		family dataset.Family
		count  float64
	}{
		{family: dataset.Darkshell, count: 253},
		{family: dataset.Ddoser, count: 134},
		{family: dataset.Dirtjumper, count: 756},
		{family: dataset.Nitol, count: 17},
		{family: dataset.Optima, count: 1},
		{family: dataset.Pandora, count: 10},
		{family: dataset.YZF, count: 66},
	}
	for _, p := range paperIntra {
		res.AddPaperMetric("intra "+string(p.family), float64(st.Intra[p.family]), p.count*w.Scale)
	}
	res.AddPaperMetric("inter dirtjumper", float64(st.Inter[dataset.Dirtjumper]), 121*w.Scale)
	res.AddPaperMetric("inter pandora", float64(st.Inter[dataset.Pandora]), 118*w.Scale)
	res.AddPaperMetric("mean botnets per collaboration", st.MeanBotnets, 2.19)
	return res, nil
}
