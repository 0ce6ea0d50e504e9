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

// DispersionIndex memoizes per-family dispersion series over one store.
// Computing a family's series walks every attack's bot formation, and the
// figures, Table IV prediction, and the transfer matrix all read the same
// series; the index computes each family's at most once and serves the
// shared slice afterwards.
//
// It is safe for concurrent use: the family map is guarded by mu, while
// each entry is its own memo.Lazy, so a slow series computation never
// holds the map lock and two families can be computed concurrently.
type DispersionIndex struct {
	store *dataset.Store

	mu    sync.Mutex
	byFam map[dataset.Family]*memo.Lazy[[]DispersionPoint] // guarded by mu
}

// NewDispersionIndex creates an empty index over s. Series are computed
// lazily on first access; use Precompute to fill the index eagerly.
func NewDispersionIndex(s *dataset.Store) *DispersionIndex {
	return &DispersionIndex{
		store: s,
		byFam: make(map[dataset.Family]*memo.Lazy[[]DispersionPoint]),
	}
}

// Store returns the underlying store.
func (ix *DispersionIndex) Store() *dataset.Store { return ix.store }

// Series returns the family's chronological dispersion series, computing
// it on first call. The returned slice is shared and must not be modified.
//
//botscope:shared
func (ix *DispersionIndex) Series(f dataset.Family) []DispersionPoint {
	ix.mu.Lock()
	e, ok := ix.byFam[f]
	if !ok {
		e = new(memo.Lazy[[]DispersionPoint])
		ix.byFam[f] = e
	}
	ix.mu.Unlock()
	return e.Get(func() []DispersionPoint { return DispersionSeries(ix.store, f) })
}

// Precompute fills the index for every family in the store, sharded by
// family across workers (0 = all cores). Calling it is optional — it only
// moves the work earlier and spreads it over cores.
func (ix *DispersionIndex) Precompute(workers int) {
	fams := ix.store.Families()
	par.Map(workers, len(fams), func(i int) struct{} {
		ix.Series(fams[i])
		return struct{}{}
	})
}

// Profile builds a family's dispersion profile. The error is non-nil when
// the family has no usable attacks.
func (ix *DispersionIndex) Profile(f dataset.Family) (DispersionProfile, error) {
	return profileFromSeries(f, ix.Series(f))
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
// one-step-ahead, score with mean/std/cosine similarity.
func (ix *DispersionIndex) Predict(f dataset.Family, cfg PredictConfig) (*PredictionResult, error) {
	return PredictSeries(f, DispersionValues(ix.Series(f)), cfg)
}

// PredictAll runs Predict for every family with enough data, in count
// order (Table IV covers five families; Darkshell drops out for
// insufficient data), with the per-family fits sharded across workers
// (0 = all cores). Families that fail to fit are skipped; results keep
// the ActiveFamilies order, so the output matches the sequential loop.
func (ix *DispersionIndex) PredictAll(cfg PredictConfig, workers int) []*PredictionResult {
	fams := ix.ActiveFamilies(1)
	results := par.Map(workers, len(fams), func(i int) *PredictionResult {
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
	src := DispersionValues(ix.Series(source))
	tgt := DispersionValues(ix.Series(target))
	return transferFromSeries(source, target, src, tgt, order, minSeries)
}

// TransferMatrix evaluates every ordered pair of the given families and
// returns the successful results in pair order; pairs whose series are
// too short or whose fits fail are skipped. The ordered pairs are sharded
// across all cores.
func (ix *DispersionIndex) TransferMatrix(families []dataset.Family, order timeseries.Order, minSeries int) []*TransferResult {
	return ix.transferMatrix(families, order, minSeries, 0)
}

// transferMatrix is TransferMatrix with its worker count exposed for the
// parity tests.
//
// An n-family matrix has n(n-1) ordered pairs but only 2n distinct ARIMA
// fits — the source-role model depends only on the source series and the
// native-role score only on the target series — so both are computed once
// per family (in parallel) and shared across every pair. Pair scoring
// reuses them and only runs the cheap transfer forecast.
func (ix *DispersionIndex) transferMatrix(families []dataset.Family, order timeseries.Order, minSeries int, workers int) []*TransferResult {
	if minSeries <= 0 {
		minSeries = 60
	}
	vals := par.Map(workers, len(families), func(i int) []float64 {
		return DispersionValues(ix.Series(families[i]))
	})
	type famFit struct {
		srcModel  *timeseries.Model
		srcErr    error
		muTrain   float64
		nativeSim float64
		nativeErr error
	}
	fits := par.Map(workers, len(families), func(i int) *famFit {
		v := vals[i]
		if len(v) < minSeries {
			err := fmt.Errorf("core: %s has %d dispersion points, need %d", families[i], len(v), minSeries)
			return &famFit{srcErr: err, nativeErr: err}
		}
		f := &famFit{}
		f.srcModel, f.srcErr = timeseries.Fit(v, order)
		f.muTrain, f.nativeSim, f.nativeErr = nativeFit(families[i], v, order)
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
	results := par.Map(workers, len(pairs), func(i int) *TransferResult {
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
