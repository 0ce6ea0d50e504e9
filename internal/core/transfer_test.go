package core

import (
	"testing"

	"botscope/internal/dataset"
	"botscope/internal/timeseries"
)

func TestTransferPredictValidation(t *testing.T) {
	ix := NewDispersionIndex(synthWorkload(t))
	// Aldibot has far fewer than 60 dispersion points at this scale.
	if _, err := ix.Transfer(dataset.Aldibot, dataset.Dirtjumper, timeseries.Order{P: 1}, 60); err == nil {
		t.Error("short source series accepted")
	}
	if _, err := ix.Transfer(dataset.Dirtjumper, dataset.Aldibot, timeseries.Order{P: 1}, 60); err == nil {
		t.Error("short target series accepted")
	}
}

func TestTransferPredictAcrossFamilies(t *testing.T) {
	res, err := NewDispersionIndex(synthWorkload(t)).Transfer(dataset.Dirtjumper, dataset.Pandora, timeseries.Order{P: 1}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != dataset.Dirtjumper || res.Target != dataset.Pandora {
		t.Errorf("pair = %s->%s", res.Source, res.Target)
	}
	// The paper's cross-family claim: behavior learned on one family
	// carries to others. The transferred model must retain most of the
	// native model's predictive power.
	if res.NativeSimilarity <= 0 {
		t.Fatalf("native similarity = %v", res.NativeSimilarity)
	}
	if res.Retention < 0.5 {
		t.Errorf("retention = %v (transfer %v vs native %v), want >= 0.5",
			res.Retention, res.TransferSimilarity, res.NativeSimilarity)
	}
}

func TestTransferMatrix(t *testing.T) {
	fams := []dataset.Family{dataset.Dirtjumper, dataset.Pandora, dataset.Blackenergy}
	results := NewDispersionIndex(synthWorkload(t)).TransferMatrix(fams, timeseries.Order{P: 1}, 60)
	if len(results) == 0 {
		t.Fatal("no transfer results")
	}
	if len(results) > 6 {
		t.Fatalf("results = %d, want at most 6 ordered pairs", len(results))
	}
	seen := make(map[string]bool)
	for _, r := range results {
		key := string(r.Source) + "->" + string(r.Target)
		if r.Source == r.Target {
			t.Errorf("self pair %s", key)
		}
		if seen[key] {
			t.Errorf("duplicate pair %s", key)
		}
		seen[key] = true
	}
}
