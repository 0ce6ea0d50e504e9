package core

import (
	"fmt"
	"math"

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
	// published.TestPoints points. Zero means half the series.
	TestPoints int
}

// minPredictSeries is the minimum series length to attempt a fit: the paper
// skips Darkshell for lack of data.
const minPredictSeries = 40

// fitOrder fits order on train; the zero order selects one via AutoFit over
// a small grid with d = 0.
func fitOrder(train []float64, order timeseries.Order) (*timeseries.Model, error) {
	if order == (timeseries.Order{}) {
		return timeseries.AutoFit(train, 0, 2, 1)
	}
	return timeseries.Fit(train, order)
}

// predictSplit is where the evaluation split of f's n-point series
// starts: half way, or TestPoints from the end when that is later.
func predictSplit(f dataset.Family, n int, cfg PredictConfig) (int, error) {
	if n < minPredictSeries {
		return 0, fmt.Errorf("core: family %s has %d points, need %d for prediction (the paper skips such families)",
			f, n, minPredictSeries)
	}
	split := n / 2
	if cfg.TestPoints > 0 && n-split > cfg.TestPoints {
		split = n - cfg.TestPoints
	}
	return split, nil
}

// scorePrediction is the experiment's result from the fit of
// series[:split]: model, or fitErr when the fit failed. Truth is a copy of
// series[split:], so a held result does not keep the training half alive.
func scorePrediction(f dataset.Family, series []float64, split int, model *timeseries.Model, fitErr error) (*PredictionResult, error) {
	if fitErr != nil {
		return nil, fmt.Errorf("core: fit dispersion model for %s: %w", f, fitErr)
	}
	preds, sim, fcErr, err := scoreOneStep(model, series, split)
	if fcErr != nil {
		return nil, fmt.Errorf("core: forecast for %s: %w", f, fcErr)
	}
	if err != nil {
		return nil, fmt.Errorf("core: score forecasts for %s: %w", f, err)
	}
	truth := make([]float64, len(series)-split)
	copy(truth, series[split:])
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

// scoreOneStep is §IV-A's scoring step, shared by the prediction
// experiment and the transfer matrix: model's one-step forecasts of series
// from split on, clamped at zero (dispersion is a distance), and their
// cosine similarity to the truth, series[split:]. A forecast failure comes
// back as fcErr and a scoring failure as err, so each caller keeps its
// own message for each.
func scoreOneStep(model *timeseries.Model, series []float64, split int) (preds []float64, sim float64, fcErr, err error) {
	if preds, fcErr = model.OneStepForecasts(series, split); fcErr != nil {
		return nil, 0, fcErr, nil
	}
	clampNonNegative(preds)
	sim, err = stats.CosineSimilarity(preds, series[split:])
	return preds, sim, nil, err
}

func clampNonNegative(xs []float64) {
	for i, x := range xs {
		if x < 0 {
			xs[i] = 0
		}
	}
}
