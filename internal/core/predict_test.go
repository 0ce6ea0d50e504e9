package core

import (
	"math/rand"
	"testing"

	"botscope/internal/dataset"
	"botscope/internal/timeseries"
)

func TestPredictSeriesTooShort(t *testing.T) {
	if _, err := PredictSeries(dataset.Darkshell, []float64{1, 2, 3}, PredictConfig{}); err == nil {
		t.Error("short series succeeded (the paper skips Darkshell for this)")
	}
}

func TestPredictSeriesAR(t *testing.T) {
	// A positive AR(1)-style series: ARIMA should track it closely.
	rng := rand.New(rand.NewSource(5))
	n := 1200
	series := make([]float64, n)
	series[0] = 500
	for i := 1; i < n; i++ {
		series[i] = 100 + 0.8*series[i-1] + rng.NormFloat64()*50
		if series[i] < 0 {
			series[i] = 0
		}
	}
	res, err := PredictSeries(dataset.Pandora, series, PredictConfig{Order: timeseries.Order{P: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predicted) != len(res.Truth) || len(res.Errors) != len(res.Truth) {
		t.Fatalf("length mismatch: %d/%d/%d", len(res.Predicted), len(res.Truth), len(res.Errors))
	}
	if res.Similarity < 0.9 {
		t.Errorf("similarity = %v, want > 0.9 on AR data (Table IV band)", res.Similarity)
	}
	for i, p := range res.Predicted {
		if p < 0 {
			t.Fatalf("negative dispersion forecast %v at %d", p, i)
		}
	}
	// Table IV columns populated coherently.
	if res.MeanTruth <= 0 || res.MeanPred <= 0 {
		t.Errorf("means = %v/%v, want positive", res.MeanPred, res.MeanTruth)
	}
}

func TestPredictSeriesTestPointsCap(t *testing.T) {
	series := make([]float64, 400)
	rng := rand.New(rand.NewSource(6))
	for i := 1; i < len(series); i++ {
		series[i] = 50 + 0.5*series[i-1] + rng.NormFloat64()*10
	}
	res, err := PredictSeries(dataset.Optima, series, PredictConfig{
		Order:      timeseries.Order{P: 1},
		TestPoints: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) != 50 {
		t.Fatalf("test points = %d, want capped at 50", len(res.Truth))
	}
	if &res.Truth[0] == &series[len(series)-50] {
		t.Error("Truth is a view of the input series; a held result would pin its training half")
	}
}

func TestPredictDispersionOnSynthWorkload(t *testing.T) {
	s := synthWorkload(t)
	res, err := NewDispersionIndex(s).Predict(dataset.Dirtjumper, PredictConfig{
		Order:      timeseries.Order{P: 1},
		TestPoints: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Table IV: similarity above 0.8 for every reported family at full
	// scale (cmd/botreport measures 0.96); the small-scale bound is looser
	// because regime runs are long relative to the series.
	if res.Similarity < 0.7 {
		t.Errorf("dirtjumper dispersion similarity = %v, want > 0.7", res.Similarity)
	}
}

func TestPredictAllFamilies(t *testing.T) {
	s := synthWorkload(t)
	// Half split (TestPoints 0) so small families keep enough training
	// data; the paper's 2,700-point evaluation and its >0.8 similarities
	// are asserted at full scale by the experiments package.
	results := NewDispersionIndex(s).PredictAll(PredictConfig{Order: timeseries.Order{P: 1}})
	if len(results) < 5 {
		t.Fatalf("predicted families = %d, want >= 5 (Table IV covers 5)", len(results))
	}
	for _, r := range results {
		// Small-scale series carry few regime switches, so per-family
		// similarity is noisy here; the full-scale run (EXPERIMENTS.md)
		// measures 0.76-0.98 across families.
		if r.Similarity < 0.35 {
			t.Errorf("family %s similarity = %v, implausibly low", r.Family, r.Similarity)
		}
	}
}
