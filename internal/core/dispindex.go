package core

import (
	"fmt"
	"sync"

	"botscope/internal/dataset"
	"botscope/internal/memo"
	"botscope/internal/par"
	"botscope/internal/stats"
	"botscope/internal/timeseries"
)

// DispersionIndex memoizes per-family dispersion products over one store.
// Computing a family's series walks every attack's bot formation, and the
// figures, Table IV prediction, and the transfer matrix all read the same
// series; the index computes each family's at most once and serves it as
// a read-only view afterwards, with the family's profile beside it.
//
// It also holds ARIMA fits: one slot per (family, order), with the fit on
// one training length and Predict's scored result on that split. Predict,
// PredictAll and TransferMatrix's native fits read through it, and a miss
// replaces the slot, so at most one fit and one result per family and
// order are held whatever splits callers ask for.
//
// It is safe for concurrent use: the maps are guarded by mu, while each
// product is its own memo.Lazy or memo.Slot, so a slow computation never
// holds the map lock and two families can be computed concurrently. A
// family with no attacks gets no entry.
type DispersionIndex struct {
	store *dataset.Store

	mu    sync.Mutex
	byFam map[dataset.Family]*famDisp    // guarded by mu
	fits  map[fitKey]*memo.Slot[heldFit] // guarded by mu
}

// famDisp is one family's series and the profile read from it.
type famDisp struct {
	series  memo.Lazy[[]DispersionPoint]
	profile memo.Lazy[heldProfile]
}

type fitKey struct {
	f     dataset.Family
	order timeseries.Order
}

type heldProfile struct {
	p   DispersionProfile
	err error
}

// heldFit is a fit slot's value: the model (or the error) a fit on the
// first n points of the family's series gave and, when scored is set,
// Predict's result on that split (or its error).
type heldFit struct {
	n      int
	model  *timeseries.Model
	err    error
	scored bool
	res    *PredictionResult
	resErr error
}

// NewDispersionIndex creates an empty index over s. Series are computed
// lazily on first access; use Precompute to fill the index eagerly.
func NewDispersionIndex(s *dataset.Store) *DispersionIndex {
	return &DispersionIndex{
		store: s,
		byFam: make(map[dataset.Family]*famDisp),
		fits:  make(map[fitKey]*memo.Slot[heldFit]),
	}
}

// entry returns f's products, creating the entry on first use, or nil when
// f launched no attacks.
func (ix *DispersionIndex) entry(f dataset.Family) *famDisp {
	if ix.store.RowsByFamily(f).Len() == 0 {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e, ok := ix.byFam[f]
	if !ok {
		e = new(famDisp)
		ix.byFam[f] = e
	}
	return e
}

// Series returns the family's chronological dispersion series, computing
// it on first call.
func (ix *DispersionIndex) Series(f dataset.Family) memo.View[DispersionPoint] {
	e := ix.entry(f)
	if e == nil {
		return memo.View[DispersionPoint]{}
	}
	return memo.ViewOf(e.series.Get(func() []DispersionPoint { return DispersionSeries(ix.store, f) }))
}

// Precompute fills the index for every family in the store. Calling it
// is optional — it only moves the work earlier. workers == 1 computes the
// families in order on the calling goroutine, which is how
// benchmark/layers.go times the kernel; any other value shards them over
// the par pool.
func (ix *DispersionIndex) Precompute(workers int) {
	fams := ix.store.Families()
	if workers == 1 {
		for _, f := range fams.All() {
			ix.Series(f)
		}
		return
	}
	par.Map(fams.Len(), func(i int) struct{} {
		ix.Series(fams.At(i))
		return struct{}{}
	})
}

// Profile returns a family's dispersion profile, building it on first
// call. The error is non-nil when the family has no usable attacks.
func (ix *DispersionIndex) Profile(f dataset.Family) (DispersionProfile, error) {
	e := ix.entry(f)
	if e == nil {
		return profileFromSeries(f, memo.View[DispersionPoint]{})
	}
	h := e.profile.Get(func() heldProfile {
		p, err := profileFromSeries(f, ix.Series(f))
		return heldProfile{p, err}
	})
	return h.p, h.err
}

// CDF builds the Fig 9 per-family CDF over all dispersion values
// (symmetric included).
func (ix *DispersionIndex) CDF(f dataset.Family) (*stats.ECDF, error) {
	return cdfFromSeries(f, ix.Series(f))
}

// Histogram builds the Figs 10/11 histogram of the asymmetric dispersion
// values (symmetric ones removed, exactly as the paper does).
func (ix *DispersionIndex) Histogram(f dataset.Family, bins int) (*stats.Histogram, error) {
	return histogramFromSeries(f, ix.Series(f), bins)
}

// ActiveFamilies returns the families with at least minPoints dispersion
// observations, sorted by count descending. Fig 9 reports the six
// families with >= 10 snapshots.
func (ix *DispersionIndex) ActiveFamilies(minPoints int) []dataset.Family {
	return activeFamiliesFrom(ix.store.Families(), ix.Series, minPoints)
}

// Predict runs the paper's experiment for one family: fit ARIMA on the
// first half of its dispersion series, predict the second half
// one-step-ahead, score with mean/std/cosine similarity. It equals a
// fresh fit and score on the family's values. The result is the held one
// when the family's slot for cfg's order was scored on the same split,
// and is shared: its slices must not be modified. Otherwise it scores the
// slot's fit when that is on the same split, or a fresh one, and the
// result replaces the slot. Two callers that miss together both compute;
// the slot keeps one of the equal answers.
func (ix *DispersionIndex) Predict(f dataset.Family, cfg PredictConfig) (*PredictionResult, error) {
	series := ix.Series(f)
	split, err := predictSplit(f, series.Len(), cfg)
	if err != nil {
		return nil, err
	}
	slot := ix.fitSlot(f, cfg.Order)
	held := slot.Load()
	if held != nil && held.n == split && held.scored {
		return held.res, held.resErr
	}
	vals := DispersionValues(series)
	next := &heldFit{n: split, scored: true}
	if held != nil && held.n == split {
		next.model, next.err = held.model, held.err
	} else {
		next.model, next.err = fitOrder(vals[:split], cfg.Order)
	}
	next.res, next.resErr = scorePrediction(f, vals, split, next.model, next.err)
	slot.CompareAndSwap(held, next)
	return next.res, next.resErr
}

// fitSlot returns f's slot for order, creating it on first use. Callers
// hold points of f's series, so f has attacks.
func (ix *DispersionIndex) fitSlot(f dataset.Family, order timeseries.Order) *memo.Slot[heldFit] {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	slot, ok := ix.fits[fitKey{f, order}]
	if !ok {
		slot = new(memo.Slot[heldFit])
		ix.fits[fitKey{f, order}] = slot
	}
	return slot
}

// PredictAll runs Predict for every family with enough data, in count
// order (Table IV covers five families; Darkshell drops out for
// insufficient data), with the per-family fits sharded over the par pool.
// Families that fail to fit are skipped; results keep the ActiveFamilies
// order, so the output matches the sequential loop.
func (ix *DispersionIndex) PredictAll(cfg PredictConfig) []*PredictionResult {
	fams := ix.ActiveFamilies(1)
	results := par.Map(len(fams), func(i int) *PredictionResult {
		res, err := ix.Predict(fams[i], cfg)
		if err != nil {
			return nil
		}
		return res
	})
	out := make([]*PredictionResult, 0, len(results))
	for _, r := range results {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Transfer fits ARIMA on source's dispersion series and evaluates it
// one-step-ahead on target's series (second half), against a natively
// fitted reference. Both families need at least minSeries points.
func (ix *DispersionIndex) Transfer(source, target dataset.Family, order timeseries.Order, minSeries int) (*TransferResult, error) {
	if minSeries <= 0 {
		minSeries = 60
	}
	src := DispersionValues(ix.Series(source))
	tgt := DispersionValues(ix.Series(target))
	if len(src) < minSeries {
		return nil, fmt.Errorf("core: source %s has %d dispersion points, need %d", source, len(src), minSeries)
	}
	if len(tgt) < minSeries {
		return nil, fmt.Errorf("core: target %s has %d dispersion points, need %d", target, len(tgt), minSeries)
	}
	srcModel, err := timeseries.Fit(src, order)
	if err != nil {
		return nil, fmt.Errorf("core: fit source %s: %w", source, err)
	}
	muTrain, nativeSim, err := ix.nativeFit(target, tgt, order)
	if err != nil {
		return nil, err
	}
	return transferScore(source, target, srcModel, tgt, muTrain, nativeSim)
}

// nativeFit scores f's own order model, fitted on the training half of its
// values tgt, as nativeScore does. The model is the held one when f's slot
// for order holds a fit on that half; otherwise a fresh fit replaces the
// slot, as in Predict.
func (ix *DispersionIndex) nativeFit(f dataset.Family, tgt []float64, order timeseries.Order) (muTrain, nativeSim float64, err error) {
	split := len(tgt) / 2
	slot := ix.fitSlot(f, order)
	held := slot.Load()
	var model *timeseries.Model
	if held != nil && held.n == split {
		model, err = held.model, held.err
	} else {
		model, err = fitOrder(tgt[:split], order)
		slot.CompareAndSwap(held, &heldFit{n: split, model: model, err: err})
	}
	if err != nil {
		return 0, 0, fmt.Errorf("core: fit native %s: %w", f, err)
	}
	return nativeScore(tgt, model)
}

// TransferMatrix evaluates every ordered pair of the given families and
// returns the successful results in pair order; pairs whose series are
// too short or whose fits fail are skipped. The ordered pairs are sharded
// over the par pool.
//
// An n-family matrix has n(n-1) ordered pairs but only 2n distinct ARIMA
// fits — the source-role model depends only on the source series and the
// native-role score only on the target series — so both are computed once
// per family (in parallel) and shared across every pair; the native fit is
// the index's held one when it has it. Pair scoring reuses them and only
// runs the cheap transfer forecast.
func (ix *DispersionIndex) TransferMatrix(families []dataset.Family, order timeseries.Order, minSeries int) []*TransferResult {
	if minSeries <= 0 {
		minSeries = 60
	}
	vals := par.Map(len(families), func(i int) []float64 {
		return DispersionValues(ix.Series(families[i]))
	})
	type famFit struct {
		srcModel  *timeseries.Model
		srcErr    error
		muTrain   float64
		nativeSim float64
		nativeErr error
	}
	fits := par.Map(len(families), func(i int) *famFit {
		v := vals[i]
		if len(v) < minSeries {
			err := fmt.Errorf("core: %s has %d dispersion points, need %d", families[i], len(v), minSeries)
			return &famFit{srcErr: err, nativeErr: err}
		}
		f := &famFit{}
		f.srcModel, f.srcErr = timeseries.Fit(v, order)
		f.muTrain, f.nativeSim, f.nativeErr = ix.nativeFit(families[i], v, order)
		return f
	})
	type pair struct{ src, tgt int }
	var pairs []pair
	for si := range families {
		for ti := range families {
			if si != ti {
				pairs = append(pairs, pair{si, ti})
			}
		}
	}
	results := par.Map(len(pairs), func(i int) *TransferResult {
		src, tgt := fits[pairs[i].src], fits[pairs[i].tgt]
		if src.srcErr != nil || tgt.nativeErr != nil {
			return nil
		}
		res, err := transferScore(families[pairs[i].src], families[pairs[i].tgt],
			src.srcModel, vals[pairs[i].tgt], tgt.muTrain, tgt.nativeSim)
		if err != nil {
			return nil
		}
		return res
	})
	out := make([]*TransferResult, 0, len(results))
	for _, r := range results {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}
