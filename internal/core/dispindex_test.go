package core

import (
	"sync"
	"testing"

	"botscope/internal/timeseries"
)

// TestDispersionIndexMatchesDirect checks the index serves exactly what
// the direct per-call computation produces, for every family.
func TestDispersionIndexMatchesDirect(t *testing.T) {
	s := synthWorkload(t)
	ix := NewDispersionIndex(s)
	for _, f := range s.Families() {
		want := DispersionSeries(s, f)
		got := ix.Series(f)
		if len(got) != len(want) {
			t.Fatalf("%s: index series has %d points, direct %d", f, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: point %d differs: %+v vs %+v", f, i, got[i], want[i])
			}
		}
	}
	// The memoized slice must be the same allocation on repeat calls.
	f := s.Families()[0]
	a, b := ix.Series(f), ix.Series(f)
	if len(a) > 0 && &a[0] != &b[0] {
		t.Error("repeated Series calls returned different backing arrays; memoization is not working")
	}
}

// TestDispersionIndexDerived checks the two sharded accessors against
// the sequential loops they replace: PredictAll against Predict per
// active family, and transferMatrix — which fits each family once and
// shares the fits across pairs — against Transfer per ordered pair.
func TestDispersionIndexDerived(t *testing.T) {
	ix := NewDispersionIndex(synthWorkload(t))
	fams := ix.ActiveFamilies(10)
	if len(fams) < 2 {
		t.Fatalf("active families = %v; comparisons below are vacuous", fams)
	}

	cfg := PredictConfig{Order: timeseries.Order{P: 1}}
	var wantAll []*PredictionResult
	for _, f := range ix.ActiveFamilies(1) {
		if res, err := ix.Predict(f, cfg); err == nil {
			wantAll = append(wantAll, res)
		}
	}
	gotAll := ix.PredictAll(cfg, 4)
	if len(wantAll) != len(gotAll) {
		t.Fatalf("PredictAll: %d results vs %d", len(gotAll), len(wantAll))
	}
	for i := range wantAll {
		if wantAll[i].Family != gotAll[i].Family || wantAll[i].Similarity != gotAll[i].Similarity {
			t.Errorf("PredictAll[%d]: %s/%v vs %s/%v", i,
				gotAll[i].Family, gotAll[i].Similarity, wantAll[i].Family, wantAll[i].Similarity)
		}
	}

	order := timeseries.Order{P: 1}
	var wantTM []*TransferResult
	for _, src := range fams[:2] {
		for _, tgt := range fams[:2] {
			if src == tgt {
				continue
			}
			if res, err := ix.Transfer(src, tgt, order, 10); err == nil {
				wantTM = append(wantTM, res)
			}
		}
	}
	gotTM := ix.transferMatrix(fams[:2], order, 10, 4)
	if len(wantTM) != len(gotTM) {
		t.Fatalf("TransferMatrix: %d results vs %d", len(gotTM), len(wantTM))
	}
	for i := range wantTM {
		if *wantTM[i] != *gotTM[i] {
			t.Errorf("TransferMatrix[%d]: %+v vs %+v", i, gotTM[i], wantTM[i])
		}
	}
}

// TestDispersionIndexConcurrent hammers the index from many goroutines
// under -race: concurrent first computations, repeat reads, and a
// Precompute all racing on the same index.
func TestDispersionIndexConcurrent(t *testing.T) {
	s := synthWorkload(t)
	ix := NewDispersionIndex(s)
	fams := s.Families()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 0 {
				ix.Precompute(4)
				return
			}
			for r := 0; r < 3; r++ {
				for _, f := range fams {
					_ = ix.Series(f)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, f := range fams {
		want := DispersionSeries(s, f)
		if got := ix.Series(f); len(got) != len(want) {
			t.Fatalf("%s: concurrent fill produced %d points, want %d", f, len(got), len(want))
		}
	}
}
