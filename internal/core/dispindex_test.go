package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"botscope/internal/dataset"
	"botscope/internal/synth"
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
// the sequential loops they replace, at several GOMAXPROCS: PredictAll
// against Predict per active family, and TransferMatrix — which fits each
// family once and shares the fits across pairs — against Transfer per
// ordered pair.
func TestDispersionIndexDerived(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	ix := NewDispersionIndex(synthWorkload(t))
	fams := ix.ActiveFamilies(10)
	if len(fams) < 2 {
		t.Fatalf("active families = %v; comparisons below are vacuous", fams)
	}

	cfg := PredictConfig{Order: timeseries.Order{P: 1}}
	var wantAll []*PredictionResult
	for _, f := range ix.ActiveFamilies(1) {
		if res, err := PredictSeries(f, DispersionValues(ix.Series(f)), cfg); err == nil {
			wantAll = append(wantAll, res)
		}
	}
	procs := []int{1, 3, 7}
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		gotAll := ix.PredictAll(cfg)
		if len(wantAll) != len(gotAll) {
			t.Fatalf("GOMAXPROCS=%d: PredictAll: %d results vs %d", p, len(gotAll), len(wantAll))
		}
		for i := range wantAll {
			if wantAll[i].Family != gotAll[i].Family || wantAll[i].Similarity != gotAll[i].Similarity {
				t.Errorf("GOMAXPROCS=%d: PredictAll[%d]: %s/%v vs %s/%v", p, i,
					gotAll[i].Family, gotAll[i].Similarity, wantAll[i].Family, wantAll[i].Similarity)
			}
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
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		gotTM := ix.TransferMatrix(fams[:2], order, 10)
		if len(wantTM) != len(gotTM) {
			t.Fatalf("GOMAXPROCS=%d: TransferMatrix: %d results vs %d", p, len(gotTM), len(wantTM))
		}
		for i := range wantTM {
			if *wantTM[i] != *gotTM[i] {
				t.Errorf("GOMAXPROCS=%d: TransferMatrix[%d]: %+v vs %+v", p, i, gotTM[i], wantTM[i])
			}
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
				ix.Precompute(0)
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

// heldFits counts the fits the index holds.
func (ix *DispersionIndex) heldFits() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	for _, slot := range ix.fits {
		if slot.Load() != nil {
			n++
		}
	}
	return n
}

// sweepFams and sweepPoints are the hostile /predict sweep: every
// test_points a client could send up to 300, on a long and a short series,
// so most calls move the split and miss the held fit. The store is small
// enough for a fit a call to stay cheap under the race detector.
var sweepFams = []dataset.Family{dataset.Dirtjumper, dataset.Pandora}

const sweepPoints = 300

var (
	sweepOnce  sync.Once
	sweepStore *dataset.Store
	sweepWant  map[dataset.Family][]*PredictionResult // [tp-1]
	sweepErr   error
)

// sweepReference returns the sweep's store and the unmemoized answer for
// every (family, test_points): PredictSeries, which fits afresh, once per
// distinct split.
func sweepReference(t *testing.T) (*dataset.Store, map[dataset.Family][]*PredictionResult) {
	t.Helper()
	sweepOnce.Do(func() {
		if sweepStore, sweepErr = synth.GenerateStore(synth.Config{Seed: 99, Scale: 0.01}); sweepErr != nil {
			return
		}
		sweepWant = make(map[dataset.Family][]*PredictionResult)
		for _, f := range sweepFams {
			vals := DispersionValues(DispersionSeries(sweepStore, f))
			bySplit := make(map[int]*PredictionResult)
			for tp := 1; tp <= sweepPoints; tp++ {
				split := len(vals) - min(tp, len(vals)-len(vals)/2)
				res, ok := bySplit[split]
				if !ok {
					if res, sweepErr = PredictSeries(f, vals, PredictConfig{Order: timeseries.Order{P: 1}, TestPoints: tp}); sweepErr != nil {
						return
					}
					bySplit[split] = res
				}
				sweepWant[f] = append(sweepWant[f], res)
			}
		}
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepStore, sweepWant
}

// checkSweepAnswer asks ix for one point of the sweep and compares it with
// the unmemoized reference (NaN equal to NaN: a one-point split has no
// standard deviation).
func checkSweepAnswer(t *testing.T, ix *DispersionIndex, want map[dataset.Family][]*PredictionResult, f dataset.Family, tp int) {
	got, err := ix.Predict(f, PredictConfig{Order: timeseries.Order{P: 1}, TestPoints: tp})
	if err != nil {
		t.Errorf("%s test_points %d: %v", f, tp, err)
		return
	}
	if fmt.Sprint(*got) != fmt.Sprint(*want[f][tp-1]) {
		t.Errorf("%s test_points %d: held-fit answer differs from PredictSeries (similarity %v vs %v)",
			f, tp, got.Similarity, want[f][tp-1].Similarity)
	}
}

// TestDispersionIndexFitSlotBounded sweeps test_points over 1..300 on two
// families, asking each twice: every answer equals a fresh PredictSeries,
// and the index never holds more than one fit per (family, order) — a
// client that walks the splits costs a fit a call, not memory. A second
// order adds a slot per family and no more.
func TestDispersionIndexFitSlotBounded(t *testing.T) {
	s, want := sweepReference(t)
	ix := NewDispersionIndex(s)
	for _, f := range sweepFams {
		for tp := 1; tp <= sweepPoints; tp++ {
			checkSweepAnswer(t, ix, want, f, tp)
			checkSweepAnswer(t, ix, want, f, tp) // the held fit
			if n := ix.heldFits(); n > len(sweepFams) {
				t.Fatalf("%d fits held after %s test_points %d, want at most %d", n, f, tp, len(sweepFams))
			}
		}
	}
	for _, f := range sweepFams {
		if _, err := ix.Predict(f, PredictConfig{TestPoints: 20}); err != nil { // AutoFit: the zero order
			t.Fatal(err)
		}
	}
	if n := ix.heldFits(); n != 2*len(sweepFams) {
		t.Errorf("%d fits held over two orders, want %d", n, 2*len(sweepFams))
	}
}

// TestDispersionIndexFitSlotConcurrent runs the sweep from 8 goroutines on
// one index, four a family, each taking every fourth test_points, so slots
// are replaced while others read them (verify-race runs it under the race
// detector).
func TestDispersionIndexFitSlotConcurrent(t *testing.T) {
	s, want := sweepReference(t)
	ix := NewDispersionIndex(s)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := sweepFams[g%len(sweepFams)]
			for tp := g/len(sweepFams) + 1; tp <= sweepPoints; tp += 4 {
				checkSweepAnswer(t, ix, want, f, tp)
			}
		}()
	}
	wg.Wait()
	if n := ix.heldFits(); n > len(sweepFams) {
		t.Errorf("%d fits held, want at most %d", n, len(sweepFams))
	}
}

// TestDispersionIndexUnknownFamily pins that a family with no attacks —
// any name a client puts in a URL — creates no entry in the index.
func TestDispersionIndexUnknownFamily(t *testing.T) {
	ix := NewDispersionIndex(synthWorkload(t))
	const f = dataset.Family("no-such-family")
	if got := ix.Series(f); len(got) != 0 {
		t.Errorf("Series = %d points", len(got))
	}
	if _, err := ix.Profile(f); err == nil {
		t.Error("Profile succeeded")
	}
	if _, err := ix.Predict(f, PredictConfig{Order: timeseries.Order{P: 1}}); err == nil {
		t.Error("Predict succeeded")
	}
	if len(ix.byFam) != 0 {
		t.Errorf("the index holds %d entries after reads of an unknown family", len(ix.byFam))
	}
}
