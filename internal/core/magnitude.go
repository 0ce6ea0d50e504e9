package core

import (
	"fmt"
	"slices"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/stats"
)

// The paper uses the number of source IPs as the attack-magnitude measure
// (§III-B: bots do not spoof, so IP counts are meaningful). This file
// characterizes magnitudes per family and the workload's concurrent attack
// load over time — the "on average, there was 243 simultaneous verified
// DDoS attacks" observation of §II-B.

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
	if len(rows) == 0 {
		return MagnitudeProfile{}, fmt.Errorf("core: family %s has no attacks", f)
	}
	mags := make([]float64, len(rows))
	durs := make([]float64, len(rows))
	for i, row := range rows {
		v := s.AttackAt(int(row))
		mags[i] = float64(v.Magnitude())
		durs[i] = v.Duration().Seconds()
	}
	prof := MagnitudeProfile{Family: f, Summary: stats.Summarize(mags)}
	if corr, err := stats.PearsonCorrelation(mags, durs); err == nil {
		prof.DurationCorrelation = corr
	}
	return prof, nil
}

// LoadPoint is one step of the concurrent-attack load series: how many
// attacks are in progress just after Time.
type LoadPoint struct {
	Time   time.Time
	Active int
}

// ConcurrentLoad sweeps the workload and returns the number of in-progress
// attacks at every start/end boundary, plus the peak and the time-weighted
// average. The error is non-nil for an empty workload.
//
// Attack rows ascend by start, so only the ends are sorted and the sweep
// merges two ascending nanosecond streams.
func ConcurrentLoad(s *dataset.Store) ([]LoadPoint, LoadStats, error) {
	n := s.AttackRows()
	if n == 0 {
		return nil, LoadStats{}, fmt.Errorf("core: empty workload")
	}
	ends := make([]int64, n)
	for i := range ends {
		ends[i] = s.AttackAt(i).EndNano()
	}
	slices.Sort(ends)

	var (
		pts       = make([]LoadPoint, 0, 2*n)
		active    int
		st        LoadStats
		prev      int64
		weightSum float64
		timeSum   float64
	)
	for i, j := 0, 0; i < n || j < n; {
		var t int64 // the earlier of the next start and the next end
		if i < n {
			t = s.AttackAt(i).StartNano()
		}
		if j < n && (i == n || ends[j] < t) {
			t = ends[j]
		}
		if len(pts) > 0 {
			dt := time.Duration(t - prev).Seconds()
			weightSum += float64(active) * dt
			timeSum += dt
		}
		// Every boundary of an instant is applied before its point is
		// emitted, so a zero-duration attack never shows as active.
		for ; j < n && ends[j] == t; j++ {
			active--
		}
		for ; i < n && s.AttackAt(i).StartNano() == t; i++ {
			active++
		}
		at := time.Unix(0, t).UTC()
		pts = append(pts, LoadPoint{Time: at, Active: active})
		if active > st.Peak {
			st.Peak = active
			st.PeakTime = at
		}
		prev = t
	}
	if timeSum > 0 {
		st.TimeWeightedMean = weightSum / timeSum
	}
	return pts, st, nil
}

// LoadStats summarizes the concurrent-load sweep.
type LoadStats struct {
	// Peak is the maximum number of simultaneously active attacks.
	Peak int
	// PeakTime is when the peak was reached.
	PeakTime time.Time
	// TimeWeightedMean is the average number of active attacks over the
	// whole window (the paper reports 243 simultaneous attacks on
	// average).
	TimeWeightedMean float64
}
