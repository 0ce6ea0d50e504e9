package core

import (
	"math"
	"testing"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/stats"
)

func TestIntervals(t *testing.T) {
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour),
		mkAttack(2, dataset.Pandora, 2, "5.5.5.2", t0.Add(30*time.Second), time.Hour),
		mkAttack(3, dataset.Dirtjumper, 1, "5.5.5.3", t0.Add(10*time.Minute), time.Hour),
	}
	s := mustStore(t, attacks)
	if gaps := AllIntervals(s); len(gaps) != 2 || gaps[0] != 30 || gaps[1] != 570 {
		t.Errorf("AllIntervals = %v, want [30 570]", gaps)
	}
	if gaps := FamilyIntervals(s, dataset.Dirtjumper); len(gaps) != 1 || gaps[0] != 600 {
		t.Errorf("FamilyIntervals(dirtjumper) = %v, want [600]", gaps)
	}
	if FamilyIntervals(s, dataset.Pandora) != nil || AllIntervals(mustStore(t, attacks[:1])) != nil {
		t.Error("a single attack produced gaps")
	}
}

func TestAnalyzeIntervals(t *testing.T) {
	gaps := []float64{0, 0, 30, 120, 3600}
	st, err := AnalyzeIntervals(gaps)
	if err != nil {
		t.Fatal(err)
	}
	if st.ExactZeroFrac != 0.4 {
		t.Errorf("ExactZeroFrac = %v, want 0.4", st.ExactZeroFrac)
	}
	if st.SimultaneousFrac != 0.6 { // 0, 0, 30 are below 60 s
		t.Errorf("SimultaneousFrac = %v, want 0.6", st.SimultaneousFrac)
	}
	if st.N != 5 {
		t.Errorf("N = %d, want 5", st.N)
	}
	if _, err := AnalyzeIntervals(nil); err == nil {
		t.Error("empty interval analysis succeeded")
	}
}

func TestClusterIntervals(t *testing.T) {
	gaps := []float64{
		10,    // simultaneous, excluded
		400,   // 5-10 min
		420,   // 5-10 min
		1800,  // 20-40 min
		9000,  // 1.5-4 hr
		90000, // 1-7 day
	}
	clusters := ClusterIntervals(gaps)
	find := func(label string) int {
		for _, c := range clusters {
			if c.Label == label {
				return c.Count
			}
		}
		t.Fatalf("cluster %q missing", label)
		return -1
	}
	if got := find("5-10 min"); got != 2 {
		t.Errorf("5-10 min = %d, want 2", got)
	}
	if got := find("20-40 min"); got != 1 {
		t.Errorf("20-40 min = %d, want 1", got)
	}
	if got := find("1.5-4 hr"); got != 1 {
		t.Errorf("1.5-4 hr = %d, want 1", got)
	}
	if got := find("1-7 day"); got != 1 {
		t.Errorf("1-7 day = %d, want 1", got)
	}
	total := 0
	for _, c := range clusters {
		total += c.Count
	}
	if total != 5 {
		t.Errorf("clustered total = %d, want 5 (simultaneous excluded)", total)
	}
}

func TestTargetIntervals(t *testing.T) {
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour),
		mkAttack(2, dataset.Dirtjumper, 1, "5.5.5.1", t0.Add(time.Hour), time.Hour),
		mkAttack(3, dataset.Dirtjumper, 1, "5.5.5.1", t0.Add(3*time.Hour), time.Hour),
		mkAttack(4, dataset.Dirtjumper, 1, "5.5.5.2", t0, time.Hour),
	}
	s := mustStore(t, attacks)
	got := TargetIntervals(s, 3)
	if len(got) != 1 {
		t.Fatalf("targets = %d, want 1 (only 5.5.5.1 has >= 3 attacks)", len(got))
	}
	gaps := got["5.5.5.1"]
	if len(gaps) != 2 || gaps[0] != 3600 || gaps[1] != 7200 {
		t.Errorf("gaps = %v, want [3600 7200]", gaps)
	}
}

func TestIntervalsOnSynthWorkload(t *testing.T) {
	s := synthWorkload(t)
	gaps := AllIntervals(s)
	st, err := AnalyzeIntervals(gaps)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 3: a large share of all attacks launch concurrently. The scaled
	// workload stretches gaps (same window, fewer attacks), so the band is
	// generous; the full-scale check lives in the experiments package.
	if st.SimultaneousFrac < 0.2 {
		t.Errorf("global simultaneous fraction = %v, want >= 0.2", st.SimultaneousFrac)
	}
	// Per-family: dirtjumper has plenty of concurrent launches; aldibot
	// and optima have none below 60 s (Fig 5).
	for _, f := range []dataset.Family{dataset.Aldibot, dataset.Optima} {
		fg := FamilyIntervals(s, f)
		if len(fg) == 0 {
			continue
		}
		fs, err := AnalyzeIntervals(fg)
		if err != nil {
			t.Fatal(err)
		}
		// Fig 5 shows no sub-60s intervals for these families, yet Table VI
		// records one Optima collaboration (necessarily simultaneous) — the
		// paper's own data is in tension here. Allow at most a couple of
		// collaboration-induced events.
		if fs.SimultaneousFrac > 2.5/float64(len(fg)) {
			t.Errorf("%s simultaneous fraction = %v over %d gaps, want near 0 (Fig 5)", f, fs.SimultaneousFrac, len(fg))
		}
	}
	djStats, err := AnalyzeIntervals(FamilyIntervals(s, dataset.Dirtjumper))
	if err != nil {
		t.Fatal(err)
	}
	if djStats.SimultaneousFrac < 0.3 {
		t.Errorf("dirtjumper simultaneous fraction = %v, want >= 0.3", djStats.SimultaneousFrac)
	}

	// CDF sanity: monotone with full mass.
	cdf := stats.NewECDF(gaps)
	if p := cdf.Eval(math.Inf(1)); p != 1 {
		t.Errorf("CDF at +inf = %v", p)
	}
}
