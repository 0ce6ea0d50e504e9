package core

import (
	"slices"
	"testing"
)

// TestFeedReadsDoNotMutate folds the synth workload three ways — exact
// and read after every attack, exact and read once, live and read after
// every attack — and requires the same answers at the end: reading never
// changes what the fold goes on to report, the exact fold's load half is
// ConcurrentLoad's, and the live fold's counts and load are the exact
// fold's.
func TestFeedReadsDoNotMutate(t *testing.T) {
	s := synthWorkload(t)
	n := s.AttackRows()
	read, once, live := NewFeed(n), NewFeed(n), NewLiveFeed()
	for i := 0; i < n; i++ {
		v := s.AttackAt(i)
		for _, f := range []*Feed{read, once, live} {
			f.Observe(v.StartNano(), v.EndNano())
		}
		for _, f := range []*Feed{read, live} {
			f.Intervals()
			f.Durations()
			f.Load()
		}
	}
	wantPts, wantLoad, err := ConcurrentLoad(s)
	if err != nil {
		t.Fatal(err)
	}
	onceGaps, onceIv, _ := once.Intervals()
	onceDurs, onceDu, _ := once.Durations()
	for name, f := range map[string]*Feed{"read": read, "once": once} {
		gaps, iv, _ := f.Intervals()
		durs, du, _ := f.Durations()
		pts, load, _ := f.Load()
		if !slices.Equal(gaps, onceGaps) || !slices.Equal(durs, onceDurs) || iv != onceIv || du != onceDu {
			t.Errorf("%s: intervals or durations differ from a fold read once", name)
		}
		if !slices.Equal(pts, wantPts) || load != wantLoad {
			t.Errorf("%s: load %+v over %d points, ConcurrentLoad %+v over %d", name, load, len(pts), wantLoad, len(wantPts))
		}
	}
	_, iv, _ := live.Intervals()
	_, du, _ := live.Durations()
	_, load, _ := live.Load()
	if iv.N != onceIv.N || iv.SimultaneousFrac != onceIv.SimultaneousFrac || iv.ExactZeroFrac != onceIv.ExactZeroFrac ||
		du.N != onceDu.N || du.FracUnder4h != onceDu.FracUnder4h || du.FracUnder60s != onceDu.FracUnder60s {
		t.Errorf("live counts %+v %+v, exact %+v %+v", iv, du, onceIv, onceDu)
	}
	if load != wantLoad || live.Active() != once.Active() {
		t.Errorf("live load %+v (%d active), exact %+v (%d active)", load, live.Active(), wantLoad, once.Active())
	}
}
