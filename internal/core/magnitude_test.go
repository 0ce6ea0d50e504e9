package core

import (
	"net/netip"
	"sort"
	"testing"
	"time"

	"botscope/internal/dataset"
)

// withMagnitude sets an attack's source count.
func withMagnitude(a *dataset.Attack, n int) *dataset.Attack {
	ips := make([]netip.Addr, n)
	base := netip.MustParseAddr("9.1.0.0").As4()
	for i := range ips {
		ips[i] = netip.AddrFrom4([4]byte{base[0], base[1], byte(i >> 8), byte(i)})
	}
	a.BotIPs = ips
	return a
}

func TestProfileMagnitudes(t *testing.T) {
	// Magnitude strictly grows with duration -> correlation 1.
	attacks := []*dataset.Attack{
		withMagnitude(mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, 1*time.Hour), 10),
		withMagnitude(mkAttack(2, dataset.Dirtjumper, 1, "5.5.5.2", t0.Add(time.Hour), 2*time.Hour), 20),
		withMagnitude(mkAttack(3, dataset.Dirtjumper, 1, "5.5.5.3", t0.Add(2*time.Hour), 3*time.Hour), 30),
	}
	s := mustStore(t, attacks)
	prof, err := ProfileMagnitudes(s, dataset.Dirtjumper)
	if err != nil {
		t.Fatal(err)
	}
	if prof.N != 3 || prof.Mean != 20 {
		t.Errorf("profile = %+v", prof)
	}
	if prof.DurationCorrelation < 0.999 {
		t.Errorf("correlation = %v, want 1", prof.DurationCorrelation)
	}
	if _, err := ProfileMagnitudes(s, dataset.Optima); err == nil {
		t.Error("family without attacks succeeded")
	}
}

func TestConcurrentLoad(t *testing.T) {
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, 2*time.Hour),
		mkAttack(2, dataset.Dirtjumper, 1, "5.5.5.2", t0.Add(time.Hour), 2*time.Hour), // overlaps #1
		mkAttack(3, dataset.Pandora, 2, "5.5.5.3", t0.Add(5*time.Hour), time.Hour),    // isolated
	}
	s := mustStore(t, attacks)
	pts, st, err := ConcurrentLoad(s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Peak != 2 {
		t.Errorf("peak = %d, want 2", st.Peak)
	}
	if !st.PeakTime.Equal(t0.Add(time.Hour)) {
		t.Errorf("peak time = %v, want %v", st.PeakTime, t0.Add(time.Hour))
	}
	// Active counts along the sweep must start at 1, hit 2, and end at 0.
	if pts[0].Active != 1 {
		t.Errorf("first point active = %d, want 1", pts[0].Active)
	}
	if pts[len(pts)-1].Active != 0 {
		t.Errorf("last point active = %d, want 0", pts[len(pts)-1].Active)
	}
	// Time-weighted mean over the 6-hour span: (1h*1 + 1h*2 + 1h*1 + 2h*0 + 1h*1)/6h = 5/6.
	if st.TimeWeightedMean < 0.8 || st.TimeWeightedMean > 0.87 {
		t.Errorf("time-weighted mean = %v, want 5/6", st.TimeWeightedMean)
	}
}

func TestConcurrentLoadZeroDuration(t *testing.T) {
	a := mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, 0)
	s := mustStore(t, []*dataset.Attack{a})
	_, st, err := ConcurrentLoad(s)
	if err != nil {
		t.Fatal(err)
	}
	// A zero-duration attack ends the instant it starts: peak stays 0.
	if st.Peak != 0 {
		t.Errorf("peak = %d, want 0 for zero-duration attack", st.Peak)
	}
}

func TestConcurrentLoadEmpty(t *testing.T) {
	s := mustStore(t, nil)
	if _, _, err := ConcurrentLoad(s); err == nil {
		t.Error("empty workload succeeded")
	}
}

func TestConcurrentLoadOnSynthWorkload(t *testing.T) {
	s := synthWorkload(t)
	pts, st, err := ConcurrentLoad(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || st.Peak == 0 {
		t.Fatalf("load sweep empty: %+v", st)
	}
	// The paper reports ~243 simultaneous attacks on average at full
	// scale; the 5% workload should sit around 5% of that, loosely.
	if st.TimeWeightedMean < 1 || st.TimeWeightedMean > 60 {
		t.Errorf("mean concurrent load = %v, want O(12) at 5%% scale", st.TimeWeightedMean)
	}
	if st.Peak < int(st.TimeWeightedMean) {
		t.Errorf("peak %d below mean %v", st.Peak, st.TimeWeightedMean)
	}
}

// referenceConcurrentLoad is the sweep ConcurrentLoad replaced: every
// boundary as a time.Time event, one reflective sort over all of them.
func referenceConcurrentLoad(s *dataset.Store) ([]LoadPoint, LoadStats) {
	type boundary struct {
		t     time.Time
		delta int
	}
	var events []boundary
	for i, n := 0, s.AttackRows(); i < n; i++ {
		v := s.AttackAt(i)
		events = append(events, boundary{v.Start(), 1}, boundary{v.End(), -1})
	}
	sort.Slice(events, func(i, j int) bool {
		if !events[i].t.Equal(events[j].t) {
			return events[i].t.Before(events[j].t)
		}
		return events[i].delta < events[j].delta
	})
	var (
		pts                []LoadPoint
		active             int
		st                 LoadStats
		prevT              time.Time
		weightSum, timeSum float64
	)
	for i := 0; i < len(events); {
		t := events[i].t
		if i > 0 {
			dt := t.Sub(prevT).Seconds()
			weightSum += float64(active) * dt
			timeSum += dt
		}
		for i < len(events) && events[i].t.Equal(t) {
			active += events[i].delta
			i++
		}
		pts = append(pts, LoadPoint{Time: t, Active: active})
		if active > st.Peak {
			st.Peak, st.PeakTime = active, t
		}
		prevT = t
	}
	if timeSum > 0 {
		st.TimeWeightedMean = weightSum / timeSum
	}
	return pts, st
}

// TestConcurrentLoadMatchesReference pins the two-stream merge against
// the sort-everything sweep, point for point and bit for bit, on the
// synth workload and on the boundary coincidences a merge can get wrong:
// zero-duration attacks, an end equal to another attack's start,
// duplicate starts and duplicate ends.
func TestConcurrentLoadMatchesReference(t *testing.T) {
	h := time.Hour
	edge := mustStore(t, []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, 2*h),
		mkAttack(2, dataset.Dirtjumper, 1, "5.5.5.2", t0, 3*h),            // duplicate start
		mkAttack(3, dataset.Pandora, 2, "5.5.5.3", t0.Add(h), 0),          // zero duration, mid-flight
		mkAttack(4, dataset.Pandora, 2, "5.5.5.4", t0.Add(2*h), h),        // starts where #1 ends, ends with #2
		mkAttack(5, dataset.Pandora, 2, "5.5.5.5", t0.Add(2*h), 0),        // zero duration on that same instant
		mkAttack(6, dataset.Dirtjumper, 1, "5.5.5.6", t0.Add(7*h), 0),     // zero duration after a gap
		mkAttack(7, dataset.Dirtjumper, 1, "5.5.5.7", t0.Add(7*h), h+123), // non-integer seconds
		mkAttack(8, dataset.Dirtjumper, 1, "5.5.5.8", t0.Add(9*h), h),
	})
	for name, s := range map[string]*dataset.Store{"synth": synthWorkload(t), "edge": edge} {
		wantPts, wantSt := referenceConcurrentLoad(s)
		pts, st, err := ConcurrentLoad(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(wantPts) {
			t.Fatalf("%s: %d points, reference %d", name, len(pts), len(wantPts))
		}
		for i, p := range pts {
			if p != wantPts[i] {
				t.Fatalf("%s: point %d = %+v, reference %+v", name, i, p, wantPts[i])
			}
		}
		if st != wantSt {
			t.Errorf("%s: stats %+v, reference %+v", name, st, wantSt)
		}
	}
}
