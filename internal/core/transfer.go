package core

import (
	"fmt"

	"botscope/internal/dataset"
	"botscope/internal/stats"
	"botscope/internal/timeseries"
)

// The paper's introduction argues that behaviors "once learned in one
// family can be used to understand behavior in other families". This file
// tests that claim mechanically: fit the dispersion model on a source
// family, apply its coefficients unchanged to a target family's series,
// and compare against a natively fitted model.

// TransferResult scores cross-family model transfer for one (source,
// target) pair.
type TransferResult struct {
	Source dataset.Family
	Target dataset.Family
	// TransferSimilarity is the cosine similarity of one-step forecasts on
	// the target's evaluation half using the source-fitted model.
	TransferSimilarity float64
	// NativeSimilarity is the same with a model fitted on the target's own
	// training half.
	NativeSimilarity float64
	// Retention is transfer/native — how much predictive power survives
	// the transfer (1.0 means the source model works as well as native).
	Retention float64
}

func transferFromSeries(source, target dataset.Family, src, tgt []float64, order timeseries.Order, minSeries int) (*TransferResult, error) {
	if minSeries <= 0 {
		minSeries = 60
	}
	if len(src) < minSeries {
		return nil, fmt.Errorf("core: source %s has %d dispersion points, need %d", source, len(src), minSeries)
	}
	if len(tgt) < minSeries {
		return nil, fmt.Errorf("core: target %s has %d dispersion points, need %d", target, len(tgt), minSeries)
	}
	srcModel, err := timeseries.Fit(src, order)
	if err != nil {
		return nil, fmt.Errorf("core: fit source %s: %w", source, err)
	}
	muTrain, nativeSim, err := nativeFit(target, tgt, order)
	if err != nil {
		return nil, err
	}
	return transferScore(source, target, srcModel, tgt, muTrain, nativeSim)
}

// nativeFit fits the target's own model on its training half and scores
// its one-step forecasts on the evaluation half. Both outputs depend only
// on the target, so TransferMatrix computes them once per family and
// reuses them for every source.
func nativeFit(target dataset.Family, tgt []float64, order timeseries.Order) (muTrain, nativeSim float64, err error) {
	split := len(tgt) / 2
	muTrain = stats.Mean(tgt[:split])
	nativeModel, err := timeseries.Fit(tgt[:split], order)
	if err != nil {
		return 0, 0, fmt.Errorf("core: fit native %s: %w", target, err)
	}
	nativePreds, err := nativeModel.OneStepForecasts(tgt, split)
	if err != nil {
		return 0, 0, err
	}
	clampNonNegative(nativePreds)
	nativeSim, err = stats.CosineSimilarity(nativePreds, tgt[split:])
	if err != nil {
		return 0, 0, err
	}
	return muTrain, nativeSim, nil
}

// transferScore applies a source-fitted model to the target's evaluation
// half. The coefficients come from the source family; the mean is
// re-anchored to the target's training mean (levels differ per family,
// shapes transfer).
func transferScore(source, target dataset.Family, srcModel *timeseries.Model, tgt []float64, muTrain, nativeSim float64) (*TransferResult, error) {
	split := len(tgt) / 2
	truth := tgt[split:]
	transferred := &timeseries.Model{
		Order:  srcModel.Order,
		Mu:     muTrain,
		AR:     srcModel.AR,
		MA:     srcModel.MA,
		Sigma2: srcModel.Sigma2,
	}
	transferPreds, err := transferred.OneStepForecasts(tgt, split)
	if err != nil {
		return nil, fmt.Errorf("core: transfer forecast %s->%s: %w", source, target, err)
	}
	clampNonNegative(transferPreds)
	transferSim, err := stats.CosineSimilarity(transferPreds, truth)
	if err != nil {
		return nil, err
	}

	res := &TransferResult{
		Source:             source,
		Target:             target,
		TransferSimilarity: transferSim,
		NativeSimilarity:   nativeSim,
	}
	if !stats.IsZero(nativeSim) {
		res.Retention = transferSim / nativeSim
	}
	return res, nil
}

func clampNonNegative(xs []float64) {
	for i, x := range xs {
		if x < 0 {
			xs[i] = 0
		}
	}
}
