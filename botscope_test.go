package botscope

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

var (
	apiOnce  sync.Once
	apiStore *Store
	apiErr   error
)

func apiWorkload(t *testing.T) *Store {
	t.Helper()
	apiOnce.Do(func() {
		apiStore, apiErr = Generate(GenerateConfig{Seed: 123, Scale: 0.04})
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiStore
}

func TestActiveFamilies(t *testing.T) {
	fams := ActiveFamilies()
	if len(fams) != 10 {
		t.Fatalf("families = %d, want 10", len(fams))
	}
	// The returned slice is a copy; mutating it must not corrupt the API.
	fams[0] = "mutant"
	if got := ActiveFamilies()[0]; got == "mutant" {
		t.Error("ActiveFamilies aliases internal state")
	}
}

func TestGenerateAndAnalyzeEndToEnd(t *testing.T) {
	store := apiWorkload(t)
	a := NewAnalyzer(store)

	sum := a.Summary()
	if sum.Attacks == 0 || sum.TrafficTypes != 7 {
		t.Fatalf("summary = %+v", sum)
	}
	if a.Store() != store {
		t.Error("Store accessor broken")
	}

	breakdown := a.ProtocolBreakdown()
	if len(breakdown) == 0 || breakdown[0].Category != CategoryHTTP {
		t.Errorf("breakdown = %v, want HTTP dominant", breakdown)
	}

	daily, err := a.DailyDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if daily.Max == 0 || len(daily.Days) == 0 {
		t.Errorf("daily = %+v", daily)
	}

	ist, err := a.AnalyzeIntervals(a.AllIntervals())
	if err != nil {
		t.Fatal(err)
	}
	if ist.N == 0 {
		t.Error("no intervals")
	}
	if fam := a.FamilyIntervals(Dirtjumper); len(fam) == 0 {
		t.Error("no dirtjumper intervals")
	}

	dst, err := a.AnalyzeDurations(a.Durations())
	if err != nil {
		t.Fatal(err)
	}
	if dst.Mean <= 0 {
		t.Errorf("duration mean = %v", dst.Mean)
	}

	prof, err := a.DispersionProfile(Pandora)
	if err != nil {
		t.Fatal(err)
	}
	if prof.N == 0 {
		t.Error("no pandora dispersion")
	}
	if len(a.DispersionSeries(Pandora)) != prof.N {
		t.Error("series length mismatch")
	}

	collabs := a.Collaborations()
	if collabs.TotalIntra == 0 {
		t.Error("no collaborations detected")
	}
	pair := a.Pair(Dirtjumper, Pandora)
	if pair.Count == 0 {
		t.Error("no dirtjumper-pandora pairs")
	}
	chains := a.Chains()
	if len(chains.Chains) == 0 {
		t.Error("no chains detected")
	}

	tc := a.TargetCountries(Darkshell, 5)
	if len(tc.Top) == 0 || tc.Top[0].CC != "CN" {
		t.Errorf("darkshell targets = %+v, want CN first", tc.Top)
	}
	if len(a.GlobalTargetCountries(3)) != 3 {
		t.Error("global target ranking truncation broken")
	}
	if len(a.OrgHotspots(Pandora, time.Time{}, time.Time{})) == 0 {
		t.Error("no hotspots")
	}

	weeks, err := a.WeeklySources(Dirtjumper)
	if err != nil {
		t.Fatal(err)
	}
	if len(weeks) == 0 {
		t.Error("no weekly source data")
	}

	preds := a.PredictNextAttacks(5)
	if len(preds) == 0 {
		t.Error("no next-attack predictions")
	}
}

func TestPredictDispersionViaAPI(t *testing.T) {
	store := apiWorkload(t)
	a := NewAnalyzer(store)
	res, err := a.PredictDispersion(Dirtjumper, PredictConfig{Order: ARIMAOrder{P: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Similarity < 0.5 {
		t.Errorf("similarity = %v, implausibly low", res.Similarity)
	}
	all := a.PredictAllFamilies(PredictConfig{Order: ARIMAOrder{P: 1}})
	if len(all) < 3 {
		t.Errorf("families predicted = %d, want several", len(all))
	}
}

func TestCodecRoundTripViaAPI(t *testing.T) {
	store := apiWorkload(t)
	attacks := store.Attacks()[:50]

	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, attacks); err != nil {
		t.Fatal(err)
	}
	gotCSV, err := ReadCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCSV) != len(attacks) {
		t.Errorf("csv round trip = %d records, want %d", len(gotCSV), len(attacks))
	}

	var jsonBuf bytes.Buffer
	if err := WriteJSONL(&jsonBuf, attacks); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := ReadJSONL(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotJSON) != len(attacks) {
		t.Errorf("jsonl round trip = %d records, want %d", len(gotJSON), len(attacks))
	}

	// Round-tripped records rebuild a valid store.
	if _, err := NewStore(gotCSV, nil, nil); err != nil {
		t.Errorf("round-tripped records rejected: %v", err)
	}
}

func TestGenerateRaw(t *testing.T) {
	attacks, botnets, bots, err := GenerateRaw(GenerateConfig{Seed: 5, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(attacks) == 0 || len(botnets) == 0 || len(bots) == 0 {
		t.Fatalf("raw generation incomplete: %d/%d/%d", len(attacks), len(botnets), len(bots))
	}
	if _, err := NewStore(attacks, botnets, bots); err != nil {
		t.Errorf("raw records rejected: %v", err)
	}
}

func TestARIMAHelpers(t *testing.T) {
	series := make([]float64, 300)
	for i := 1; i < len(series); i++ {
		series[i] = 0.6*series[i-1] + float64((i*37)%11) - 5
	}
	m, err := FitARIMA(series, ARIMAOrder{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fc, err := m.Forecast(3); err != nil || len(fc) != 3 {
		t.Errorf("forecast = %v, %v", fc, err)
	}
	auto, err := AutoFitARIMA(series, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Order.P == 0 && auto.Order.Q == 0 {
		t.Errorf("auto fit picked %v on an AR-ish series", auto.Order)
	}
}

func TestExtendedAnalyzerAPIs(t *testing.T) {
	store := apiWorkload(t)
	a := NewAnalyzer(store)

	prof, err := a.MagnitudeProfile(Dirtjumper)
	if err != nil {
		t.Fatal(err)
	}
	if prof.N == 0 || prof.Mean <= 0 {
		t.Errorf("magnitude profile = %+v", prof)
	}

	pts, load, err := a.ConcurrentLoad()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || load.Peak == 0 {
		t.Errorf("load = %+v", load)
	}

	diurnal, err := a.AnalyzeDiurnal()
	if err != nil {
		t.Fatal(err)
	}
	if diurnal.Diurnal {
		t.Errorf("workload classified diurnal: %+v", diurnal)
	}

	transfer, err := a.TransferPredict(Dirtjumper, Pandora, ARIMAOrder{P: 1}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if transfer.Retention <= 0 {
		t.Errorf("transfer = %+v", transfer)
	}

	acts, err := a.BotnetActivities(Dirtjumper)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) == 0 || acts[0].Attacks == 0 {
		t.Errorf("activities = %+v", acts)
	}
	churn, err := a.Churn(Dirtjumper)
	if err != nil {
		t.Fatal(err)
	}
	if churn.TopShare <= 0 || churn.P90Generations == 0 {
		t.Errorf("churn = %+v", churn)
	}

	first, last, _ := store.TimeBounds()
	split := first.Add(last.Sub(first) / 2)
	bl, err := a.BuildBlacklist(time.Time{}, split, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := a.EvaluateBlacklist(bl, split, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.BotCoverage <= 0 {
		t.Errorf("blacklist eval = %+v", ev)
	}
	if plans := a.PlanMitigation(5); len(plans) == 0 {
		t.Error("no mitigation plans")
	}
}

func TestForecastIntervalsViaAPI(t *testing.T) {
	store := apiWorkload(t)
	a := NewAnalyzer(store)
	series := a.DispersionSeries(Dirtjumper)
	m, err := FitARIMA(series, ARIMAOrder{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.ForecastWithIntervals(5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 5 || fc[0].Lower >= fc[0].Upper {
		t.Errorf("forecast intervals = %+v", fc)
	}
}

func TestExperimentsViaAPI(t *testing.T) {
	store := apiWorkload(t)
	w := NewExperiments(store, 0.04)
	res, err := w.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "Table III" || res.Text == "" {
		t.Errorf("result = %+v", res)
	}
}

func TestStreamAnalyzerViaAPI(t *testing.T) {
	store := apiWorkload(t)
	sa := NewStreamAnalyzer()
	for _, a := range store.Attacks() {
		if err := sa.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	snap := sa.Snapshot()
	if snap.Ingested != store.NumAttacks() {
		t.Fatalf("ingested = %d, want %d", snap.Ingested, store.NumAttacks())
	}
	// The snapshot mirrors the batch analyzer over the same workload.
	a := NewAnalyzer(store)
	daily, err := a.DailyDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Daily.Max != daily.Max {
		t.Errorf("live daily max = %d, batch %d", snap.Daily.Max, daily.Max)
	}
	if err := sa.Ingest(store.Attacks()[0]); err == nil {
		t.Error("out-of-order ingest accepted")
	}
}

// TestAnalyzerSharesDerivedProducts pins that an Analyzer derives the §V
// event lists and a family's dispersion series once: two Pair calls hand
// out the same events, two Chains calls the same chains and the second
// allocates nothing, and a second DispersionProfile allocates its own
// summary only — under 1 % of the bytes the first spent on the dense bot
// index and the series (0.45 % here; a re-scan of the series alone reads
// 1.8 %).
func TestAnalyzerSharesDerivedProducts(t *testing.T) {
	store, err := Generate(GenerateConfig{Seed: 123, Scale: 0.04}) // not apiWorkload: the first call must find nothing built
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(store)

	p1, p2 := a.Pair(Dirtjumper, Pandora), a.Pair(Dirtjumper, Pandora)
	if len(p1.Events) == 0 {
		t.Fatal("no dirtjumper-pandora events; the comparison below is vacuous")
	}
	for i := range p1.Events {
		if p1.Events[i] != p2.Events[i] {
			t.Fatalf("Pair event %d is a different *Collaboration on the second call: detection ran twice", i)
		}
	}

	c1, c2 := a.Chains(), a.Chains()
	if len(c1.Chains) == 0 {
		t.Fatal("no multistage chains; the comparison below is vacuous")
	}
	if &c1.Chains[0] != &c2.Chains[0] || c1.Longest != c2.Longest {
		t.Fatal("Chains returned a different chain list on the second call: detection ran twice")
	}
	if n := testing.AllocsPerRun(10, func() { a.Chains() }); n != 0 {
		t.Errorf("a repeat Chains call allocated %v objects, want 0", n)
	}

	allocated := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := a.DispersionProfile(Dirtjumper); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	first, second := allocated(), allocated()
	if second*100 >= first {
		t.Errorf("second DispersionProfile allocated %d bytes, first %d: want under 1 %%", second, first)
	}
}
