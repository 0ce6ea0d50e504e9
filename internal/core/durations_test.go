package core

import (
	"math"
	"testing"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/stats"
)

func TestDurations(t *testing.T) {
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour),
		mkAttack(2, dataset.Pandora, 2, "5.5.5.2", t0.Add(time.Hour), 30*time.Minute),
	}
	s := mustStore(t, attacks)
	durs := Durations(s)
	if len(durs) != 2 || durs[0] != 3600 || durs[1] != 1800 {
		t.Errorf("durations = %v, want [3600 1800]", durs)
	}
}

func TestAnalyzeDurations(t *testing.T) {
	durs := []float64{30, 100, 1000, 10000, 20000}
	st, err := AnalyzeDurations(durs)
	if err != nil {
		t.Fatal(err)
	}
	if st.FracUnder60s != 0.2 {
		t.Errorf("FracUnder60s = %v, want 0.2", st.FracUnder60s)
	}
	if st.FracUnder4h != 0.8 { // 4h = 14400; four of five below
		t.Errorf("FracUnder4h = %v, want 0.8", st.FracUnder4h)
	}
	if _, err := AnalyzeDurations(nil); err == nil {
		t.Error("empty duration analysis succeeded")
	}
}

func TestBaselineDurations(t *testing.T) {
	base := BaselineDurations(0)
	if len(base) != 31612 {
		t.Fatalf("default baseline size = %d, want 31612 (Mao et al. alarm count)", len(base))
	}
	// The calibration point: 80% of baseline alarms last under 1.25 h.
	frac := stats.FractionBelow(base, 1.25*3600)
	if math.Abs(frac-0.8) > 0.02 {
		t.Errorf("baseline fraction under 1.25h = %v, want about 0.8", frac)
	}
	// Custom size works and stays calibrated.
	small := BaselineDurations(5000)
	if len(small) != 5000 {
		t.Fatalf("custom baseline size = %d", len(small))
	}
	if f := stats.FractionBelow(small, 1.25*3600); math.Abs(f-0.8) > 0.03 {
		t.Errorf("small baseline fraction = %v, want about 0.8", f)
	}
}

func TestNormQuantile(t *testing.T) {
	tests := []struct {
		p    float64
		want float64
		tol  float64
	}{
		{p: 0.5, want: 0, tol: 1e-8},
		{p: 0.8416, want: 1.0, tol: 1e-2},
		{p: 0.9772, want: 2.0, tol: 1e-2},
		{p: 0.0228, want: -2.0, tol: 1e-2},
		{p: 0.001, want: -3.09, tol: 1e-2},
	}
	for _, tt := range tests {
		if got := normQuantile(tt.p); math.Abs(got-tt.want) > tt.tol {
			t.Errorf("normQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := normQuantile(0); got != -8 {
		t.Errorf("normQuantile(0) = %v, want clamp -8", got)
	}
	if got := normQuantile(1); got != 8 {
		t.Errorf("normQuantile(1) = %v, want clamp 8", got)
	}
}

func TestDurationsOnSynthWorkload(t *testing.T) {
	s := synthWorkload(t)
	st, err := AnalyzeDurations(Durations(s))
	if err != nil {
		t.Fatal(err)
	}
	// §III-C bands: median around 1,766 s, mean around 10,308 s, 80% < 4 h,
	// under 10% shorter than a minute.
	if st.Median < 500 || st.Median > 6000 {
		t.Errorf("median duration = %v, want order 1766", st.Median)
	}
	if st.Mean < 4000 || st.Mean > 25000 {
		t.Errorf("mean duration = %v, want order 10308", st.Mean)
	}
	if st.FracUnder4h < 0.65 || st.FracUnder4h > 0.95 {
		t.Errorf("fraction under 4h = %v, want about 0.8", st.FracUnder4h)
	}
	if st.FracUnder60s > 0.10 {
		t.Errorf("fraction under 60s = %v, want < 0.10", st.FracUnder60s)
	}
	// The Fig 7 comparison: our attacks last longer than the Mao et al.
	// baseline (80th percentiles ordered).
	ours := stats.NewECDF(Durations(s))
	base := stats.NewECDF(BaselineDurations(10000))
	if ours.Quantile(0.8) <= base.Quantile(0.8) {
		t.Errorf("our P80 %v not above baseline P80 %v", ours.Quantile(0.8), base.Quantile(0.8))
	}
}
