package core

import (
	"fmt"
	"math"
	"sort"

	"botscope/internal/dataset"
	"botscope/internal/stats"
	"botscope/internal/timeseries"
)

// PredictionResult is the per-family outcome of the paper's §IV-A
// geolocation-dispersion forecasting experiment (Figs 12-13, Table IV).
type PredictionResult struct {
	Family dataset.Family
	Order  timeseries.Order
	// Truth and Predicted hold the evaluation split (second half of the
	// series, or the last TestPoints values).
	Truth     []float64
	Predicted []float64
	// Errors is the per-point absolute error, chronological (the lower
	// panels of Figs 12-13).
	Errors []float64
	// Table IV's columns.
	MeanPred   float64
	StdPred    float64
	MeanTruth  float64
	StdTruth   float64
	Similarity float64
}

// PredictConfig parameterizes the forecasting experiment.
type PredictConfig struct {
	// Order is the ARIMA order; the zero value selects via AutoFit over a
	// small grid with d = 0.
	Order timeseries.Order
	// TestPoints caps the evaluation set size; the paper uses the last
	// 2,700 points. Zero means half the series.
	TestPoints int
	// MinSeries is the minimum series length to attempt a fit; the paper
	// skips Darkshell for lack of data. Zero means 40.
	MinSeries int
}

// PredictSeries is DispersionIndex.Predict on a pre-extracted series, so
// callers can forecast any per-attack quantity.
func PredictSeries(f dataset.Family, series []float64, cfg PredictConfig) (*PredictionResult, error) {
	minSeries := cfg.MinSeries
	if minSeries <= 0 {
		minSeries = 40
	}
	if len(series) < minSeries {
		return nil, fmt.Errorf("core: family %s has %d points, need %d for prediction (the paper skips such families)",
			f, len(series), minSeries)
	}
	split := len(series) / 2
	if cfg.TestPoints > 0 && len(series)-split > cfg.TestPoints {
		split = len(series) - cfg.TestPoints
	}

	var (
		model *timeseries.Model
		err   error
	)
	if cfg.Order == (timeseries.Order{}) {
		model, err = timeseries.AutoFit(series[:split], 0, 2, 1)
	} else {
		model, err = timeseries.Fit(series[:split], cfg.Order)
	}
	if err != nil {
		return nil, fmt.Errorf("core: fit dispersion model for %s: %w", f, err)
	}
	preds, err := model.OneStepForecasts(series, split)
	if err != nil {
		return nil, fmt.Errorf("core: forecast for %s: %w", f, err)
	}
	// Dispersion is a magnitude; clamp negative one-step forecasts.
	for i, p := range preds {
		if p < 0 {
			preds[i] = 0
		}
	}
	truth := series[split:]
	sim, err := stats.CosineSimilarity(preds, truth)
	if err != nil {
		return nil, fmt.Errorf("core: score forecasts for %s: %w", f, err)
	}
	errs := make([]float64, len(preds))
	for i := range preds {
		errs[i] = math.Abs(preds[i] - truth[i])
	}
	return &PredictionResult{
		Family:     f,
		Order:      model.Order,
		Truth:      truth,
		Predicted:  preds,
		Errors:     errs,
		MeanPred:   stats.Mean(preds),
		StdPred:    stats.StdDev(preds),
		MeanTruth:  stats.Mean(truth),
		StdTruth:   stats.StdDev(truth),
		Similarity: sim,
	}, nil
}

// NextAttackPrediction is the target-side §III insight: for a repeatedly
// attacked target, the inter-attack gap distribution predicts when the
// next attack starts.
type NextAttackPrediction struct {
	Target string
	// PredictedGap is the forecast gap (seconds) to the next attack.
	PredictedGap float64
	// ActualGap is the held-out true gap.
	ActualGap float64
	// AbsError is |predicted - actual|.
	AbsError float64
}

// PredictNextAttacks evaluates start-time prediction per target: for each
// target with at least minAttacks attacks, hold out the last gap, forecast
// it from the earlier gaps (ARIMA when the history is long enough, median
// gap otherwise), and report the error.
func PredictNextAttacks(s *dataset.Store, minAttacks int) []NextAttackPrediction {
	if minAttacks < 4 {
		minAttacks = 4
	}
	intervals := TargetIntervals(s, minAttacks)
	targets := make([]string, 0, len(intervals))
	for target := range intervals {
		targets = append(targets, target)
	}
	sort.Strings(targets)
	var out []NextAttackPrediction
	for _, target := range targets {
		gaps := intervals[target]
		if len(gaps) < 3 {
			continue
		}
		history := gaps[:len(gaps)-1]
		actual := gaps[len(gaps)-1]
		pred := stats.Median(history)
		if len(history) >= 30 {
			if m, err := timeseries.Fit(history, timeseries.Order{P: 1}); err == nil {
				if fc, err := m.Forecast(1); err == nil && fc[0] >= 0 {
					pred = fc[0]
				}
			}
		}
		out = append(out, NextAttackPrediction{
			Target:       target,
			PredictedGap: pred,
			ActualGap:    actual,
			AbsError:     math.Abs(pred - actual),
		})
	}
	return out
}
