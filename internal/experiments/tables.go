package experiments

import (
	"fmt"
	"sort"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/published"
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
	cell := func(key string, paper float64) { res.AddPaperMetric(key, counts[key], paper*w.Scale) }
	cell("HTTP/dirtjumper", published.DirtjumperHTTP)
	cell("HTTP/pandora", published.PandoraHTTP)
	cell("HTTP/blackenergy", published.BlackenergyHTTP)
	cell("UNDETERMINED/darkshell", published.DarkshellUndetermined)
	cell("TCP/nitol", published.NitolTCP)
	cell("UDP/yzf", published.YZFUDP)
	cell("UDP/ddoser", published.DdoserUDP)
	cell("SYN/blackenergy", published.BlackenergySYN)
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
	res.AddPaperMetric("attacks", float64(sum.Attacks), published.Attacks*w.Scale)
	res.AddPaperMetric("botnets", float64(sum.Botnets), published.Botnets*w.Scale)
	res.AddPaperMetric("bot IPs", float64(sum.BotIPs), published.BotIPs*w.Scale)
	res.AddPaperMetric("target IPs", float64(sum.TargetIPs), published.TargetIPs*w.Scale)
	res.AddPaperMetric("target countries", float64(sum.TargetCountries), published.TargetCountries)
	res.AddPaperMetric("target orgs", float64(sum.TargetOrgs), published.TargetOrgs*w.Scale)
	res.AddPaperMetric("traffic types", float64(sum.TrafficTypes), published.TrafficTypes)
	return res, nil
}

// predictConfig is the §IV-A forecasting setup of Table IV and Figures 12
// and 13: ARIMA(1,0,0) scored on the paper's last published.TestPoints
// points, scaled with the workload (at least 20).
func (w *Workload) predictConfig() core.PredictConfig {
	return core.PredictConfig{
		Order:      timeseries.Order{P: 1},
		TestPoints: max(int(published.TestPoints*w.Scale), 20),
	}
}

// TableIV regenerates the geolocation-dispersion prediction statistics.
// Families with too little data are skipped, as the paper skips
// Darkshell.
func (w *Workload) TableIV() (*Result, error) {
	results := w.Disp().PredictAll(w.predictConfig())
	if len(results) == 0 {
		return nil, fmt.Errorf("no family had enough dispersion data")
	}
	t := report.NewTable("Table IV — geolocation distance prediction statistics",
		"family", "group", "mean", "std", "similarity")
	for i := 2; i <= 4; i++ {
		t.SetAlign(i, report.AlignRight)
	}
	res := &Result{ID: "Table IV", Title: "Dispersion prediction per family"}
	for _, r := range results {
		t.AddRow(string(r.Family), "prediction",
			report.FormatFloat(r.MeanPred, 1), report.FormatFloat(r.StdPred, 1),
			fmt.Sprintf("%.3f", r.Similarity))
		t.AddRow("", "ground truth",
			report.FormatFloat(r.MeanTruth, 1), report.FormatFloat(r.StdTruth, 1), "")
		if paper, ok := published.Similarity[string(r.Family)]; ok {
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
		prof := w.TargetCountries(f).Head(5)
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
	for _, g := range global {
		if paper, ok := published.CountryAttacks[g.CC]; ok {
			res.AddPaperMetric("global attacks on "+g.CC, float64(g.Count), paper*w.Scale)
		} else {
			res.AddMetric("global attacks on "+g.CC, float64(g.Count))
		}
	}
	res.AddPaperMetric("dirtjumper target countries",
		float64(w.TargetCountries(dataset.Dirtjumper).Countries), published.DirtjumperCountries)
	return res, nil
}

// TableVI regenerates the collaboration statistics.
func (w *Workload) TableVI() (*Result, error) {
	st := w.CollabStats()
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

	intra := func(f dataset.Family, paper float64) {
		res.AddPaperMetric("intra "+string(f), float64(st.Intra[f]), paper*w.Scale)
	}
	intra(dataset.Darkshell, published.IntraDarkshell)
	intra(dataset.Ddoser, published.IntraDdoser)
	intra(dataset.Dirtjumper, published.IntraDirtjumper)
	intra(dataset.Nitol, published.IntraNitol)
	intra(dataset.Optima, published.IntraOptima)
	intra(dataset.Pandora, published.IntraPandora)
	intra(dataset.YZF, published.IntraYZF)
	res.AddPaperMetric("inter dirtjumper", float64(st.Inter[dataset.Dirtjumper]), published.InterDirtjumper*w.Scale)
	res.AddPaperMetric("inter pandora", float64(st.Inter[dataset.Pandora]), published.InterPandora*w.Scale)
	res.AddPaperMetric("mean botnets per collaboration", st.MeanBotnets, published.MeanBotnets)
	return res, nil
}
