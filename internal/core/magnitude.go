package core

import (
	"fmt"

	"botscope/internal/dataset"
	"botscope/internal/stats"
)

// The paper uses the number of source IPs as the attack-magnitude measure
// (§III-B: bots do not spoof, so IP counts are meaningful). This file
// characterizes magnitudes per family (the concurrent load is Feed's).

// MagnitudeProfile summarizes one family's attack strength.
type MagnitudeProfile struct {
	Family dataset.Family

	stats.Summary
	// DurationCorrelation is the Pearson correlation between an attack's
	// magnitude and its duration; near zero in the paper's data (strength
	// and persistence are independent levers).
	DurationCorrelation float64
}

// ProfileMagnitudes builds a family's magnitude profile. The error is
// non-nil for a family without attacks.
func ProfileMagnitudes(s *dataset.Store, f dataset.Family) (MagnitudeProfile, error) {
	rows := s.RowsByFamily(f)
	if rows.Len() == 0 {
		return MagnitudeProfile{}, fmt.Errorf("core: family %s has no attacks", f)
	}
	mags := make([]float64, rows.Len())
	durs := make([]float64, rows.Len())
	for i := range mags {
		v := s.AttackAt(int(rows.At(i)))
		mags[i] = float64(v.Magnitude())
		durs[i] = v.Duration().Seconds()
	}
	prof := MagnitudeProfile{Family: f, Summary: stats.Summarize(mags)}
	if corr, err := stats.PearsonCorrelation(mags, durs); err == nil {
		prof.DurationCorrelation = corr
	}
	return prof, nil
}
