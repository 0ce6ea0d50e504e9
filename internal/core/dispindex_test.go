package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"botscope/internal/dataset"
	"botscope/internal/memo"
	"botscope/internal/synth"
	"botscope/internal/timeseries"
)

// TestDispersionIndexMatchesDirect checks the index serves exactly what
// the direct per-call computation produces, for every family.
func TestDispersionIndexMatchesDirect(t *testing.T) {
	s := synthWorkload(t)
	ix := NewDispersionIndex(s)
	for _, f := range s.Families().All() {
		want := DispersionSeries(s, f)
		got := ix.Series(f).Clone()
		if len(got) != len(want) {
			t.Fatalf("%s: index series has %d points, direct %d", f, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: point %d differs: %+v vs %+v", f, i, got[i], want[i])
			}
		}
	}
	// A repeat call reads the memoized series: it allocates nothing.
	f := s.Families().At(0)
	if n := testing.AllocsPerRun(10, func() { ix.Series(f) }); n != 0 {
		t.Errorf("a repeated Series call allocates %v times; memoization is not working", n)
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
	fams := s.Families().Clone()
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
		if got := ix.Series(f); got.Len() != len(want) {
			t.Fatalf("%s: concurrent fill produced %d points, want %d", f, got.Len(), len(want))
		}
	}
}

// held counts the fits and the scored results the index holds.
func (ix *DispersionIndex) held() (fits, results int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, slot := range ix.fits {
		if h := slot.Load(); h != nil {
			fits++
			if h.scored {
				results++
			}
		}
	}
	return fits, results
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
			vals := DispersionValues(memo.ViewOf(DispersionSeries(sweepStore, f)))
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
			checkSweepAnswer(t, ix, want, f, tp) // the held result
			if fits, results := ix.held(); fits > len(sweepFams) || results > fits {
				t.Fatalf("%d fits and %d results held after %s test_points %d, want at most %d fits and a result each",
					fits, results, f, tp, len(sweepFams))
			}
		}
	}
	for _, f := range sweepFams {
		if _, err := ix.Predict(f, PredictConfig{TestPoints: 20}); err != nil { // AutoFit: the zero order
			t.Fatal(err)
		}
	}
	if fits, results := ix.held(); fits != 2*len(sweepFams) || results != fits {
		t.Errorf("%d fits and %d results held over two orders, want %d of each", fits, results, 2*len(sweepFams))
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
	if fits, results := ix.held(); fits > len(sweepFams) || results > fits {
		t.Errorf("%d fits and %d results held, want at most %d of each", fits, results, len(sweepFams))
	}
}

// samePrediction reports how got differs from want, bit for bit in every
// float and series, or "" when it does not.
func samePrediction(got, want *PredictionResult) string {
	if got.Family != want.Family || got.Order != want.Order {
		return fmt.Sprintf("%s %s, want %s %s", got.Family, got.Order, want.Family, want.Order)
	}
	scalars := [][2]float64{{got.MeanPred, want.MeanPred}, {got.StdPred, want.StdPred},
		{got.MeanTruth, want.MeanTruth}, {got.StdTruth, want.StdTruth}, {got.Similarity, want.Similarity}}
	for i, x := range scalars {
		if math.Float64bits(x[0]) != math.Float64bits(x[1]) {
			return fmt.Sprintf("score %d is %v, want %v", i, x[0], x[1])
		}
	}
	series := [][2][]float64{{got.Truth, want.Truth}, {got.Predicted, want.Predicted}, {got.Errors, want.Errors}}
	for i, x := range series {
		if !slices.EqualFunc(x[0], x[1], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return fmt.Sprintf("series %d (truth, predicted, errors) differs", i)
		}
	}
	return ""
}

// TestDispersionIndexHeldPredict holds Predict's held result to a fresh
// PredictSeries on the family's values, bit for bit, with a Truth that
// owns its points (a view of the values would pin their training half),
// and checks that a repeat on the same split is the held result itself:
// on the default and
// a TestPoints split, across splits that alternate and replace the slot,
// on a slot TransferMatrix's native fit filled first (its fit is scored,
// not refitted), and with PredictAll and Predict callers racing.
func TestDispersionIndexHeldPredict(t *testing.T) {
	s, _ := sweepReference(t)
	order := timeseries.Order{P: 1}
	cfgs := []PredictConfig{{Order: order}, {Order: order, TestPoints: 25}, {Order: order, TestPoints: 10}}
	// check compares ix's answer with a fresh one; it reports with Errorf,
	// so the concurrent callers below may use it, and returns nil on error.
	check := func(t *testing.T, ix *DispersionIndex, f dataset.Family, cfg PredictConfig) *PredictionResult {
		t.Helper()
		got, err := ix.Predict(f, cfg)
		want, wantErr := PredictSeries(f, DispersionValues(ix.Series(f)), cfg)
		if err != nil || wantErr != nil {
			t.Errorf("%s test_points %d: %v (fresh: %v)", f, cfg.TestPoints, err, wantErr)
			return nil
		}
		if diff := samePrediction(got, want); diff != "" {
			t.Errorf("%s test_points %d: %s", f, cfg.TestPoints, diff)
		}
		if cap(got.Truth) != len(got.Truth) {
			t.Errorf("%s test_points %d: Truth has cap %d beyond its %d points", f, cfg.TestPoints, cap(got.Truth), len(got.Truth))
		}
		return got
	}

	t.Run("splits", func(t *testing.T) {
		ix := NewDispersionIndex(s)
		for _, f := range sweepFams {
			splits := make(map[int]bool)
			for round := range 2 { // the second round finds every slot replaced by the last split
				for _, cfg := range cfgs {
					first := check(t, ix, f, cfg)
					if first == nil {
						continue
					}
					if again := check(t, ix, f, cfg); again != first {
						t.Errorf("%s test_points %d round %d: a repeat on the same split is not the held result", f, cfg.TestPoints, round)
					}
					splits[len(first.Truth)] = true
				}
			}
			if len(splits) != len(cfgs) {
				t.Fatalf("%s: %d distinct splits, want %d; the replacement above is vacuous", f, len(splits), len(cfgs))
			}
		}
	})

	t.Run("transfer", func(t *testing.T) {
		ix := NewDispersionIndex(s)
		if res := ix.TransferMatrix(sweepFams, order, 0); len(res) == 0 {
			t.Fatal("TransferMatrix gave no pairs; the native fits below are vacuous")
		}
		for _, f := range sweepFams {
			native := ix.fitSlot(f, order).Load()
			if native == nil || native.scored {
				t.Fatalf("%s: TransferMatrix left slot %+v, want an unscored native fit", f, native)
			}
			check(t, ix, f, cfgs[0]) // the default split is the native fit's half
			if h := ix.fitSlot(f, order).Load(); h.model != native.model || !h.scored {
				t.Errorf("%s: the default split refitted or did not hold its result", f)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		ix := NewDispersionIndex(s)
		want := make(map[dataset.Family]*PredictionResult)
		for _, f := range ix.ActiveFamilies(1) {
			if res, err := PredictSeries(f, DispersionValues(ix.Series(f)), cfgs[0]); err == nil {
				want[f] = res
			}
		}
		if len(want) < len(sweepFams) {
			t.Fatalf("%d families forecast; the race below is vacuous", len(want))
		}
		var wg sync.WaitGroup
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if g%2 == 0 {
					for _, got := range ix.PredictAll(cfgs[0]) {
						if want[got.Family] == nil {
							t.Errorf("PredictAll forecast %s, which a fresh fit fails", got.Family)
						} else if diff := samePrediction(got, want[got.Family]); diff != "" {
							t.Errorf("PredictAll %s: %s", got.Family, diff)
						}
					}
					return
				}
				f := sweepFams[g/2%len(sweepFams)]
				for _, cfg := range cfgs {
					check(t, ix, f, cfg)
				}
			}()
		}
		wg.Wait()
		if fits, results := ix.held(); fits > len(want) || results > fits {
			t.Errorf("%d fits and %d results held, want at most %d of each", fits, results, len(want))
		}
	})
}

// TestDispersionIndexUnknownFamily pins that a family with no attacks —
// any name a client puts in a URL — creates no entry in the index.
func TestDispersionIndexUnknownFamily(t *testing.T) {
	ix := NewDispersionIndex(synthWorkload(t))
	const f = dataset.Family("no-such-family")
	if got := ix.Series(f); got.Len() != 0 {
		t.Errorf("Series = %d points", got.Len())
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
