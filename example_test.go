package botscope_test

import (
	"fmt"
	"log"
	"maps"
	"slices"
	"sync"
	"time"

	"botscope"
)

// paperAnalyzer is the workload the Analyzer examples share: a tenth of
// the paper's feed (seed 5), generated once per test binary. Generation
// is deterministic, so every example's output is pinned.
var paperAnalyzer = sync.OnceValue(func() *botscope.Analyzer {
	store, err := botscope.Generate(botscope.GenerateConfig{Seed: 5, Scale: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	return botscope.NewAnalyzer(store)
})

// ExampleGenerate shows the two-line path from nothing to an analyzable
// workload. Generation is deterministic: the same seed and scale always
// produce the same attacks.
func ExampleGenerate() {
	store, err := botscope.Generate(botscope.GenerateConfig{Seed: 42, Scale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	a := botscope.NewAnalyzer(store)
	daily, err := a.DailyDistribution()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attacks: %d, peak day: %s\n", store.NumAttacks(), daily.MaxDay.Format("2006-01-02"))
	// Output:
	// attacks: 1044, peak day: 2012-08-29
}

// ExampleAnalyzer prints the overview of the paper's Section III: the
// workload's Table III counts, the protocol mix (Fig 1), the daily density
// (Fig 2), the inter-attack intervals (Fig 3, globally and for one
// family), the durations (Fig 7), the concurrent load (§II-B) and the
// absence of a diurnal launch pattern (§III-A).
func ExampleAnalyzer() {
	a := paperAnalyzer()

	sum := a.Summary()
	fmt.Printf("workload: %d attacks by %d botnets from %d bot IPs against %d targets\n",
		sum.Attacks, sum.Botnets, sum.BotIPs, sum.TargetIPs)

	fmt.Println("attack types (Fig 1):")
	for _, pc := range a.ProtocolBreakdown() {
		fmt.Printf("  %-13s %5d\n", pc.Category, pc.Count)
	}

	daily, err := a.DailyDistribution()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daily (Fig 2): avg %.1f attacks/day, peak %d on %s (%s)\n",
		daily.Average, daily.Max, daily.MaxDay.Format("2006-01-02"), daily.MaxDominantFamily)

	for _, gaps := range []struct {
		name   string
		series []float64
	}{
		{"all families", a.AllIntervals()},
		{"dirtjumper", a.FamilyIntervals(botscope.Dirtjumper)},
	} {
		iv, err := a.AnalyzeIntervals(gaps.series)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("intervals (Fig 3), %s: %.0f%% concurrent (<60s), median %.0fs, P80 %.0fs\n",
			gaps.name, iv.SimultaneousFrac*100, iv.Median, iv.P80)
	}

	durs, err := a.AnalyzeDurations(a.Durations())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("durations (Fig 7): median %.0fs, mean %.0fs, %.0f%% under 4 hours\n",
		durs.Median, durs.Mean, durs.FracUnder4h*100)

	_, load, err := a.ConcurrentLoad()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("concurrent load: peak %d attacks at %s, time-weighted mean %.1f\n",
		load.Peak, load.PeakTime.Format("2006-01-02 15:04"), load.TimeWeightedMean)

	di, err := a.AnalyzeDiurnal()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hour-of-day concentration %.3f against %.3f for web traffic: diurnal=%t\n",
		di.HourScore, di.ReferenceHourScore, di.Diurnal)
	// Output:
	// workload: 5088 attacks by 70 botnets from 25844 bot IPs against 996 targets
	// attack types (Fig 1):
	//   HTTP           4775
	//   UNDETERMINED    153
	//   TCP              73
	//   UDP              56
	//   ICMP             15
	//   UNKNOWN          13
	//   SYN               3
	// daily (Fig 2): avg 26.0 attacks/day, peak 95 on 2012-09-17 (dirtjumper)
	// intervals (Fig 3), all families: 46% concurrent (<60s), median 409s, P80 2848s
	// intervals (Fig 3), dirtjumper: 49% concurrent (<60s), median 320s, P80 1758s
	// durations (Fig 7): median 1763s, mean 8229s, 87% under 4 hours
	// concurrent load: peak 27 attacks at 2013-01-08 15:56, time-weighted mean 2.5
	// hour-of-day concentration 0.030 against 0.089 for web traffic: diurnal=false
}

// ExampleAnalyzer_Collaborations detects the paper's §V collaborative
// attacks — distinct botnets hitting one victim simultaneously with
// matched durations — drills into the Dirtjumper-Pandora pair (Fig 16),
// and summarizes the multistage chains of back-to-back strikes (Figs
// 17-18).
func ExampleAnalyzer_Collaborations() {
	a := paperAnalyzer()

	st := a.Collaborations()
	fmt.Printf("intra-family: %d, inter-family: %d (mean %.2f botnets each)\n",
		st.TotalIntra, st.TotalInter, st.MeanBotnets)
	for _, f := range botscope.ActiveFamilies() {
		if n := st.Intra[f]; n > 0 {
			fmt.Printf("  %-12s %3d\n", f, n)
		}
	}
	fmt.Println("cross-family pairs:")
	for _, pair := range slices.Sorted(maps.Keys(st.PairCounts)) {
		fmt.Printf("  %-24s %3d\n", pair, st.PairCounts[pair])
	}

	pair := a.Pair(botscope.Dirtjumper, botscope.Pandora)
	fmt.Printf("dirtjumper x pandora: %d joint attacks on %d targets in %d countries over %.1f weeks\n",
		pair.Count, pair.UniqueTargets, pair.Countries, pair.Span.Hours()/(24*7))

	chains := a.Chains()
	fmt.Printf("multistage: %d chains; strike gaps within 10s %.0f%%, within 30s %.0f%%\n",
		len(chains.Chains), chains.FracWithin10s*100, chains.FracWithin30s*100)
	if c := chains.Longest; c != nil {
		fmt.Printf("longest: %d strikes by %s on %s lasting %s\n",
			c.Length(), c.Family, c.Target, c.Duration().Round(time.Second))
	}
	// Output:
	// intra-family: 126, inter-family: 15 (mean 2.15 botnets each)
	//   blackenergy    1
	//   darkshell     25
	//   ddoser         2
	//   dirtjumper    82
	//   nitol          3
	//   optima         1
	//   pandora        4
	//   yzf            8
	// cross-family pairs:
	//   blackenergy+dirtjumper     1
	//   colddeath+dirtjumper       1
	//   dirtjumper+optima          1
	//   dirtjumper+pandora        12
	// dirtjumper x pandora: 12 joint attacks on 12 targets in 5 countries over 13.9 weeks
	// multistage: 27 chains; strike gaps within 10s 70%, within 30s 83%
	// longest: 13 strikes by dirtjumper on 70.184.246.46 lasting 18m52s
}

// ExampleAnalyzer_PredictDispersion profiles each family's attack-source
// geometry (§IV-A, Figs 9-11) and forecasts it with ARIMA — the paper's
// headline result that source dispersion is predictable (Figs 12-13,
// Table IV). The zero PredictConfig selects the model order by BIC.
func ExampleAnalyzer_PredictDispersion() {
	a := paperAnalyzer()

	fmt.Printf("%-12s %5s %10s %15s\n", "family", "n", "symmetric", "asym mean (km)")
	for _, f := range botscope.ActiveFamilies() {
		prof, err := a.DispersionProfile(f)
		if err != nil {
			continue
		}
		fmt.Printf("%-12s %5d %9.1f%% %15.0f\n", f, prof.N, prof.SymmetricFrac*100, prof.Asymmetric.Mean)
	}

	for _, res := range a.PredictAllFamilies(botscope.PredictConfig{Order: botscope.ARIMAOrder{P: 1}}) {
		fmt.Printf("%-12s %s similarity %.3f\n", res.Family, res.Order, res.Similarity)
	}
	res, err := a.PredictDispersion(botscope.Pandora, botscope.PredictConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pandora, order by BIC: %s similarity %.3f\n", res.Order, res.Similarity)
	// Output:
	// family           n  symmetric  asym mean (km)
	// aldibot         10      80.0%            1516
	// blackenergy    350      92.9%            4288
	// colddeath       83      33.7%             333
	// darkshell      253      47.4%            1016
	// ddoser          20      35.0%            1012
	// dirtjumper    3462      50.8%            1103
	// nitol           94      71.3%            1105
	// optima          70      40.0%            3308
	// pandora        691      83.2%             415
	// yzf             55      43.6%             817
	// dirtjumper   ARIMA(1,0,0) similarity 0.971
	// pandora      ARIMA(1,0,0) similarity 0.912
	// blackenergy  ARIMA(1,0,0) similarity 0.750
	// darkshell    ARIMA(1,0,0) similarity 0.806
	// nitol        ARIMA(1,0,0) similarity 0.775
	// colddeath    ARIMA(1,0,0) similarity 0.850
	// optima       ARIMA(1,0,0) similarity 0.830
	// yzf          ARIMA(1,0,0) similarity 0.824
	// pandora, order by BIC: ARIMA(1,0,0) similarity 0.912
}

// ExampleAnalyzer_TargetCountries is the victim side: country affinity
// (Table V) and organization hotspots (Fig 14).
func ExampleAnalyzer_TargetCountries() {
	a := paperAnalyzer()

	fmt.Print("global:")
	for _, cc := range a.GlobalTargetCountries(5) {
		fmt.Printf(" %s=%d", cc.CC, cc.Count)
	}
	fmt.Println()
	for _, f := range []botscope.Family{botscope.Dirtjumper, botscope.Colddeath, botscope.Darkshell, botscope.Ddoser} {
		prof := a.TargetCountries(f, 3)
		fmt.Printf("%-12s (%d countries):", f, prof.Countries)
		for _, cc := range prof.Top {
			fmt.Printf(" %s=%d", cc.CC, cc.Count)
		}
		fmt.Println()
	}

	hotspots := a.OrgHotspots(botscope.Pandora, time.Time{}, time.Time{})
	fmt.Printf("pandora hit %d organizations; hottest:\n", len(hotspots))
	for _, h := range hotspots[:min(3, len(hotspots))] {
		fmt.Printf("  %-28s %s %3d attacks\n", h.Org, h.CC, h.Attacks)
	}
	// Output:
	// global: US=1359 RU=1233 DE=515 UA=415 NL=269
	// dirtjumper   (69 countries): US=1027 RU=935 DE=385
	// colddeath    (8 countries): IN=32 PK=20 ID=11
	// darkshell    (8 countries): CN=113 KR=64 US=40
	// ddoser       (5 countries): MX=14 UY=3 CH=1
	// pandora hit 138 organizations; hottest:
	//   Novosibirsk Cloud 127        RU  45 attacks
	//   Chicago Datacenter 55        US  36 attacks
	//   Hamburg Registry 54          DE  23 attacks
}

// ExampleAnalyzer_BuildBlacklist makes the paper's defense insight
// operational: train bot blacklists on the first half of the window and
// score them on the second (§V).
func ExampleAnalyzer_BuildBlacklist() {
	a := paperAnalyzer()
	first, last, ok := a.Store().TimeBounds()
	if !ok {
		log.Fatal("empty workload")
	}
	split := first.Add(last.Sub(first) / 2)

	for _, size := range []int{0, 1000} {
		bl, err := a.BuildBlacklist(time.Time{}, split, size)
		if err != nil {
			log.Fatal(err)
		}
		ev, err := a.EvaluateBlacklist(bl, split, time.Time{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d bots: blocks %.1f%% of future sources, blunts %.1f%% of future attacks\n",
			bl.Len(), ev.BotCoverage*100, ev.AttacksBlunted*100)
	}
	// Output:
	// 21199 bots: blocks 87.3% of future sources, blunts 83.2% of future attacks
	//  1000 bots: blocks 9.5% of future sources, blunts 7.4% of future attacks
}

// ExampleAnalyzer_WeeklySources replays the paper's monitoring view of
// one family: the week-by-week source countries (Fig 8) and the hourly
// collection pipeline (§II-B).
func ExampleAnalyzer_WeeklySources() {
	a := paperAnalyzer()

	weeks, err := a.WeeklySources(botscope.Pandora)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range weeks[:min(4, len(weeks))] {
		existing, fresh := w.Shifts()
		fmt.Printf("week %d: %d source countries, %d new; bots in known countries %d, in new %d\n",
			w.Week, len(w.BotsByCountry), len(w.NewCountries), existing, fresh)
	}

	reports, err := a.HourlyReports(botscope.Pandora)
	if err != nil {
		log.Fatal(err)
	}
	busiest := slices.MaxFunc(reports, func(x, y botscope.HourlyReport) int { return x.BotRefs - y.BotRefs })
	fmt.Printf("%d hourly reports; busiest %s with %d bot references\n",
		len(reports), busiest.Time.Format("2006-01-02 15:04"), busiest.BotRefs)
	// Output:
	// week 3: 1 source countries, 1 new; bots in known countries 0, in new 1175
	// week 4: 3 source countries, 2 new; bots in known countries 743, in new 404
	// week 5: 1 source countries, 0 new; bots in known countries 283, in new 0
	// week 6: 1 source countries, 0 new; bots in known countries 34, in new 0
	// 4735 hourly reports; busiest 2012-09-22 22:00 with 980 bot references
}
