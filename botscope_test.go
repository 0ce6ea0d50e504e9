package botscope

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
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
	if len(breakdown) == 0 || breakdown[0].Category != dataset.CategoryHTTP {
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
	if _, err := NewStore(gotJSON, nil, nil); err != nil {
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

// TestSourceOpen holds the commands' one store source: each source opens
// to the workload it names, byte for byte, a snapshot file is mapped on a
// little-endian unix host, and the bad sources fail with the error the
// commands print.
func TestSourceOpen(t *testing.T) {
	dir := t.TempDir()
	jsonl, snap := filepath.Join(dir, "attacks.jsonl"), filepath.Join(dir, "work.bscs")
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, apiWorkload(t).Attacks()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonl, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteSnapshot(&buf, apiWorkload(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped := binary.NativeEndian.Uint16([]byte{1, 0}) == 1 && os.Getenv("BOTSCOPE_NO_MMAP") != "1"
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		mapped = false
	}

	for _, tc := range []struct {
		name   string
		src    Source
		file   string // what the store writes back out, in that file's format
		mapped bool
		fail   func(error) bool
	}{
		{name: "generate", src: Source{Seed: 123, Scale: 0.04}, file: snap},
		{name: "jsonl", src: Source{In: jsonl}, file: jsonl},
		{name: "snapshot", src: Source{Snapshot: snap}, file: snap, mapped: mapped},
		{name: "both", src: Source{In: jsonl, Snapshot: snap}, fail: func(err error) bool {
			return err.Error() == "-snapshot and -in are mutually exclusive"
		}},
		{name: "missing", src: Source{Snapshot: filepath.Join(dir, "none.bscs")}, fail: func(err error) bool {
			return errors.Is(err, fs.ErrNotExist)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := tc.src.Open()
			if tc.fail != nil {
				if err == nil || !tc.fail(err) {
					t.Fatalf("Open = %v, want the %s error", err, tc.name)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if got := store.SnapshotInfo().Mapped; got != tc.mapped {
				t.Errorf("SnapshotInfo().Mapped = %t, want %t", got, tc.mapped)
			}
			var out bytes.Buffer
			if tc.file == jsonl {
				err = WriteJSONL(&out, store.Attacks())
			} else {
				err = WriteSnapshot(&out, store)
			}
			if err != nil {
				t.Fatal(err)
			}
			if want, err := os.ReadFile(tc.file); err != nil || !bytes.Equal(out.Bytes(), want) {
				t.Errorf("the opened store writes %d bytes that differ from %s (%v)", out.Len(), filepath.Base(tc.file), err)
			}
		})
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
// event lists and a family's dispersion profile once: two Pair calls hand
// out the same events, two Chains calls the same chains and the second
// allocates nothing, and a second DispersionProfile allocates nothing
// either, where the first built the dense bot index, the series and the
// profile.
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

	if _, err := a.DispersionProfile(Dirtjumper); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { a.DispersionProfile(Dirtjumper) }); n != 0 {
		t.Errorf("a repeat DispersionProfile call allocated %v objects, want 0", n)
	}
}

// TestAnalyzerCopiesSharedProducts pins the library's boundary: the
// Analyzer reads the workload's held products, and a caller that writes
// into what a method returned changes nothing the next call sees.
func TestAnalyzerCopiesSharedProducts(t *testing.T) {
	a := NewAnalyzer(apiWorkload(t))
	daily, err := a.DailyDistribution()
	if err != nil {
		t.Fatal(err)
	}
	type answers struct {
		durs, gaps, famGaps []float64
		top                 []core.CountryCount
		protocols           []ProtocolCount
		day                 core.DailyCount
	}
	read := func() answers {
		d, err := a.DailyDistribution()
		if err != nil {
			t.Fatal(err)
		}
		return answers{
			durs:      a.Durations(),
			gaps:      a.AllIntervals(),
			famGaps:   a.FamilyIntervals(Dirtjumper),
			top:       a.TargetCountries(Dirtjumper, 5).Top,
			protocols: a.ProtocolBreakdown(),
			day:       d.Days[0],
		}
	}
	want := read()
	want.day.ByFamily = maps.Clone(want.day.ByFamily)
	want = answers{slices.Clone(want.durs), slices.Clone(want.gaps), slices.Clone(want.famGaps),
		slices.Clone(want.top), slices.Clone(want.protocols), want.day}
	if len(want.durs) == 0 || len(want.gaps) == 0 || len(want.famGaps) == 0 || len(want.top) == 0 || len(daily.Days) == 0 {
		t.Fatal("an empty answer; the checks below are vacuous")
	}

	got := read()
	got.durs[0], got.gaps[0], got.famGaps[0] = -1, -1, -1
	got.top[0] = core.CountryCount{CC: "XX", Count: -1}
	got.protocols[0].Count = -1
	got.day.ByFamily[Dirtjumper] = -1
	daily.Days[0].Count = -1
	slices.Reverse(got.durs)

	again := read()
	if !slices.Equal(again.durs, want.durs) || !slices.Equal(again.gaps, want.gaps) || !slices.Equal(again.famGaps, want.famGaps) {
		t.Error("a write into Durations, AllIntervals or FamilyIntervals reached the next call")
	}
	if !slices.Equal(again.top, want.top) || !slices.Equal(again.protocols, want.protocols) {
		t.Error("a write into TargetCountries' Top or ProtocolBreakdown reached the next call")
	}
	if again.day.Count != want.day.Count || !maps.Equal(again.day.ByFamily, want.day.ByFamily) {
		t.Error("a write into DailyDistribution's days reached the next call")
	}

	// The held forecasts and Table VI statistics.
	cfg := PredictConfig{Order: ARIMAOrder{P: 1}}
	readHeld := func() (pred, first *PredictionResult, st CollabStats) {
		pred, err := a.PredictDispersion(Dirtjumper, cfg)
		if err != nil {
			t.Fatal(err)
		}
		all := a.PredictAllFamilies(cfg)
		if len(all) == 0 || len(pred.Truth) == 0 {
			t.Fatal("no forecast; the checks below are vacuous")
		}
		return pred, all[0], a.Collaborations()
	}
	text := func(pred, first *PredictionResult, st CollabStats) string {
		return fmt.Sprint(*pred, *first, st.CollabCounts)
	}
	pred, first, st := readHeld()
	wantHeld := text(pred, first, st)
	for _, r := range []*PredictionResult{pred, first} {
		r.Truth[0], r.Predicted[0], r.Errors[0] = -1, -1, -1
	}
	st.Intra["mutated"], st.Inter["mutated"], st.PairCounts["mutated"] = 1, 1, 1
	if got := text(readHeld()); got != wantHeld {
		t.Error("a write into PredictDispersion's or PredictAllFamilies' series, or Collaborations' maps, reached the next call")
	}
}
