package botscope

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"botscope/internal/botnet"
	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/experiments"
	"botscope/internal/geo"
	"botscope/internal/memo"
	"botscope/internal/serve"
	"botscope/internal/stats"
	"botscope/internal/timeseries"
)

// benchScale controls the workload size of all benches. Override with
// BOTSCOPE_BENCH_SCALE=1.0 for a paper-size run.
func benchScale() float64 {
	if s := os.Getenv("BOTSCOPE_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

var (
	benchOnce sync.Once
	benchWl   *experiments.Workload
	benchErr  error
)

func benchWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchOnce.Do(func() {
		var store *Store
		store, benchErr = Generate(GenerateConfig{Seed: 1, Scale: benchScale()})
		benchWl = experiments.FromStore(store, benchScale())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWl
}

// BenchmarkGenerateWorkload times the synthetic workload generation
// pipeline itself (geo DB + simulation + indexing) at 1% scale.
func BenchmarkGenerateWorkload(b *testing.B) {
	seed := int64(0)
	for b.Loop() {
		seed++
		if _, err := Generate(GenerateConfig{Seed: seed, Scale: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamIngest measures single-writer ingest throughput of the
// streaming analyzer, replaying the bench workload in event-time order and
// starting a fresh analyzer at each full pass.
func BenchmarkStreamIngest(b *testing.B) {
	attacks := benchWorkload(b).Store.Attacks()
	if len(attacks) == 0 {
		b.Skip("empty workload")
	}
	var sa *StreamAnalyzer
	i := 0
	for b.Loop() {
		if i == 0 {
			sa = NewStreamAnalyzer()
		}
		if err := sa.Ingest(attacks[i]); err != nil {
			b.Fatal(err)
		}
		i = (i + 1) % len(attacks)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "attacks/sec")
}

// BenchmarkStreamSnapshot measures the cost of a full snapshot against a
// fully loaded analyzer — the per-request cost of the live endpoints.
func BenchmarkStreamSnapshot(b *testing.B) {
	attacks := benchWorkload(b).Store.Attacks()
	sa := NewStreamAnalyzer()
	for _, a := range attacks {
		if err := sa.Ingest(a); err != nil {
			b.Fatal(err)
		}
	}
	for b.Loop() {
		if snap := sa.Snapshot(); snap.Ingested != len(attacks) {
			b.Fatalf("snapshot ingested = %d, want %d", snap.Ingested, len(attacks))
		}
	}
}

// benchExperiment is the common driver: one bench per table/figure.
func benchExperiment(b *testing.B, run func() (*experiments.Result, error)) {
	b.Helper()
	// One run before the loop builds the derived products the experiment
	// reads, so the loop times and budgets the warm steady state.
	if _, err := run(); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Text) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure1(b *testing.B)  { benchExperiment(b, benchWorkload(b).Figure1) }
func BenchmarkTableII(b *testing.B)  { benchExperiment(b, benchWorkload(b).TableII) }
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, benchWorkload(b).TableIII) }
func BenchmarkFigure2(b *testing.B)  { benchExperiment(b, benchWorkload(b).Figure2) }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, benchWorkload(b).Figure3) }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, benchWorkload(b).Figure4) }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, benchWorkload(b).Figure5) }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, benchWorkload(b).Figure6) }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, benchWorkload(b).Figure7) }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, benchWorkload(b).Figure8) }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, benchWorkload(b).Figure9) }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, benchWorkload(b).Figure10) }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, benchWorkload(b).Figure11) }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, benchWorkload(b).Figure12) }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, benchWorkload(b).Figure13) }
func BenchmarkTableIV(b *testing.B)  { benchExperiment(b, benchWorkload(b).TableIV) }
func BenchmarkTableV(b *testing.B)   { benchExperiment(b, benchWorkload(b).TableV) }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, benchWorkload(b).Figure14) }
func BenchmarkTableVI(b *testing.B)  { benchExperiment(b, benchWorkload(b).TableVI) }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, benchWorkload(b).Figure15) }
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, benchWorkload(b).Figure16) }
func BenchmarkFigure17(b *testing.B) { benchExperiment(b, benchWorkload(b).Figure17) }
func BenchmarkFigure18(b *testing.B) { benchExperiment(b, benchWorkload(b).Figure18) }

// Extension experiments.
func BenchmarkExtLoad(b *testing.B)        { benchExperiment(b, benchWorkload(b).ExtLoad) }
func BenchmarkExtDiurnal(b *testing.B)     { benchExperiment(b, benchWorkload(b).ExtDiurnal) }
func BenchmarkExtCalibration(b *testing.B) { benchExperiment(b, benchWorkload(b).ExtCalibration) }
func BenchmarkExtDefense(b *testing.B)     { benchExperiment(b, benchWorkload(b).ExtDefense) }
func BenchmarkExtTransfer(b *testing.B)    { benchExperiment(b, benchWorkload(b).ExtTransfer) }

// BenchmarkExploreCycle is one cycle of botserve's explore routes (the
// batch GETs a dashboard repeats over a fixed store) on a warm server over
// the bench workload. Every answer is read from a product the workload
// built on the cycle before the loop, so an op allocates the JSON bodies
// alone; a product rebuilt or a forecast rescored per request shows here
// (bench_thresholds.json).
func BenchmarkExploreCycle(b *testing.B) {
	w := benchWorkload(b)
	srv := serve.New(w.Store, w.Scale)
	paths := []string{"/api/summary", "/api/protocols", "/api/daily", "/api/intervals",
		"/api/durations", "/api/families", "/api/collaborations", "/api/chains"}
	for _, f := range dataset.ActiveFamilies {
		paths = append(paths, "/api/family/"+string(f)+"/dispersion", "/api/family/"+string(f)+"/predict",
			"/api/family/"+string(f)+"/targets", "/api/intervals?family="+string(f))
	}
	cycle := func() {
		for _, p := range paths {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			if rec.Code >= 500 {
				b.Fatalf("GET %s = %d: %s", p, rec.Code, rec.Body.String())
			}
		}
	}
	cycle()
	for b.Loop() {
		cycle()
	}
}

// --- Ablation 1: interval mixture model vs a single lognormal ----------
//
// DESIGN.md choice: per-family inter-attack gaps come from a mixture
// (simultaneous spike + three Fig 4 modes + heavy tail). The ablation
// compares how much probability mass each model places in the paper's
// three common interval bands.
func BenchmarkAblationIntervalModel(b *testing.B) {
	models := map[string]botnet.IntervalModel{
		"mixture": {
			Modes: []botnet.IntervalMode{
				{Weight: 0.5, MedianSec: 0},
				{Weight: 0.26, MedianSec: 390, Sigma: 0.25},
				{Weight: 0.15, MedianSec: 1800, Sigma: 0.45},
				{Weight: 0.07, MedianSec: 9000, Sigma: 0.40},
				{Weight: 0.02, MedianSec: 90000, Sigma: 1.1},
			},
			MaxSec: 5e6,
		},
		"single-lognormal": {
			Modes: []botnet.IntervalMode{
				{Weight: 1, MedianSec: 1500, Sigma: 1.6},
			},
			MaxSec: 5e6,
		},
	}
	for name, model := range models {
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			inBands := 0
			total := 0
			for b.Loop() {
				v := model.Sample(rng)
				total++
				if (v >= 300 && v < 600) || (v >= 1200 && v < 2400) || (v >= 5400 && v < 14400) {
					inBands++
				}
			}
			b.ReportMetric(float64(inBands)/float64(total), "mode-band-mass")
		})
	}
}

// --- Ablation 2: signed dispersion vs mean distance to centroid --------
//
// DESIGN.md choice: the paper's signed-sum metric tells *balanced* wide
// formations (mirrored east/west around the centroid — its "complete
// geographical symmetry") apart from *imbalanced* ones. Plain mean
// distance to centroid sees both as equally wide. The reported metric is
// the asymmetric/symmetric ratio: the signed sum separates the regimes
// (ratio >> 1) while mean distance cannot (ratio ~ 1).
func BenchmarkAblationDispersion(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	west := geo.LatLon{Lat: 50, Lon: 10}
	east := geo.LatLon{Lat: 50, Lon: 50} // ~2,850 km apart
	cluster := func(at geo.LatLon, n int) []geo.LatLon {
		pts := make([]geo.LatLon, 0, n)
		for i := 0; i < n; i++ {
			jLat := (rng.Float64() - 0.5) * 0.7
			jLon := (rng.Float64() - 0.5) * 0.7
			pts = append(pts, geo.LatLon{Lat: at.Lat + jLat, Lon: at.Lon + jLon})
		}
		return pts
	}
	mkFormation := func(symmetric bool) []geo.LatLon {
		if symmetric {
			// Balanced: equal mass east and west. Wide, but the signed
			// sum cancels.
			return append(cluster(west, 20), cluster(east, 20)...)
		}
		// Imbalanced: same two sites, skewed mass.
		return append(cluster(west, 34), cluster(east, 6)...)
	}
	metrics := map[string]func([]geo.LatLon) (float64, bool){
		"signed-sum":    geo.Dispersion,
		"mean-distance": geo.MeanDistanceToCenter,
	}
	for name, metric := range metrics {
		b.Run(name, func(b *testing.B) {
			var symSum, asymSum float64
			n := 0
			for b.Loop() {
				s, _ := metric(mkFormation(true))
				a, _ := metric(mkFormation(false))
				symSum += s
				asymSum += a
				n++
			}
			if symSum > 0 {
				b.ReportMetric(asymSum/symSum, "asym/sym-separation")
			}
		})
	}
}

// --- Ablation 3: ARIMA vs persistence ----------------------------------
//
// DESIGN.md choice: ARIMA for the §IV-A dispersion forecast. The metric is
// the cosine similarity of one-step forecasts on the bench workload's
// dirtjumper dispersion series, against persistence ("next = last").
func BenchmarkAblationForecasters(b *testing.B) {
	w := benchWorkload(b)
	series := core.DispersionValues(memo.ViewOf(core.DispersionSeries(w.Store, dataset.Dirtjumper)))
	if len(series) < 100 {
		b.Skip("series too short at this scale")
	}
	split := len(series) / 2
	truth := series[split:]

	b.Run("arima(1,0,0)", func(b *testing.B) {
		var sim float64
		for b.Loop() {
			m, err := timeseries.Fit(series[:split], timeseries.Order{P: 1})
			if err != nil {
				b.Fatal(err)
			}
			preds, err := m.OneStepForecasts(series, split)
			if err != nil {
				b.Fatal(err)
			}
			sim, err = stats.CosineSimilarity(preds, truth)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sim, "similarity")
	})
	// Persistence: each point is forecast as the one before it.
	b.Run("naive", func(b *testing.B) {
		var sim float64
		pred := make([]float64, len(truth))
		for b.Loop() {
			for i := range pred {
				pred[i] = series[split+i-1]
			}
			var err error
			sim, err = stats.CosineSimilarity(pred, truth)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sim, "similarity")
	})
}

// --- Ablation 4: collaboration window sensitivity -----------------------
//
// DESIGN.md choice: the paper's 60 s / 30 min windows. The ablation sweeps
// the start window and reports how many collaborations each detects.
func BenchmarkAblationCollabWindow(b *testing.B) {
	w := benchWorkload(b)
	windows := []time.Duration{10 * time.Second, 60 * time.Second, 300 * time.Second}
	for _, win := range windows {
		b.Run(win.String(), func(b *testing.B) {
			var count int
			for b.Loop() {
				count = len(core.DetectCollaborationsWindow(w.Store, win, core.CollabDurationWindow))
			}
			b.ReportMetric(float64(count), "collaborations")
		})
	}
}

// --- Ablation 5: store indexes vs linear scans --------------------------
//
// DESIGN.md choice: family/target indexes in the store. The ablation times
// a per-family query against a full scan.
func BenchmarkAblationStoreIndex(b *testing.B) {
	w := benchWorkload(b)
	b.Run("indexed", func(b *testing.B) {
		var n int
		for b.Loop() {
			n = w.Store.RowsByFamily(dataset.Pandora).Len()
		}
		b.ReportMetric(float64(n), "attacks")
	})
	b.Run("linear-scan", func(b *testing.B) {
		var n int
		for b.Loop() {
			n = 0
			for _, a := range w.Store.Attacks() {
				if a.Family == dataset.Pandora {
					n++
				}
			}
		}
		b.ReportMetric(float64(n), "attacks")
	})
}

// BenchmarkARIMAFit times a bare ARIMA(1,0,1) fit on a 2,000-point series,
// the unit of work behind Table IV.
func BenchmarkARIMAFit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	series := make([]float64, 2000)
	for i := 1; i < len(series); i++ {
		series[i] = 0.7*series[i-1] + rng.NormFloat64()
	}
	for b.Loop() {
		if _, err := timeseries.Fit(series, timeseries.Order{P: 1, Q: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispersion times the signed-sum dispersion of a 50-bot
// formation, the unit of work behind Figs 9-13.
func BenchmarkDispersion(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]geo.LatLon, 50)
	for i := range pts {
		pts[i] = geo.LatLon{Lat: rng.Float64()*140 - 70, Lon: rng.Float64()*360 - 180}
	}
	for b.Loop() {
		if _, ok := geo.Dispersion(pts); !ok {
			b.Fatal("empty formation")
		}
	}
}

// --- Kernel benchmarks at fixed scales ----------------------------------
//
// BenchmarkNewStore and BenchmarkDetectCollaborations pin the two new data-
// plane kernels (index construction, sharded collab detection) at scale 1
// and scale 10 so the BENCH_*.json trajectory tracks them. The scale-1
// variants skip under -short (they generate a paper-size workload once);
// the scale-10 variants only run when BOTSCOPE_BENCH_LARGE is set.

var (
	benchFixedMu  sync.Mutex
	benchFixedRaw = map[float64][3]any{}
)

// benchRawAt generates (and caches) the raw records of a fixed-scale
// workload for store-construction benchmarks.
func benchRawAt(b *testing.B, scale float64) ([]*Attack, []*Botnet, []*Bot) {
	b.Helper()
	benchFixedMu.Lock()
	defer benchFixedMu.Unlock()
	if raw, ok := benchFixedRaw[scale]; ok {
		return raw[0].([]*Attack), raw[1].([]*Botnet), raw[2].([]*Bot)
	}
	attacks, botnets, bots, err := GenerateRaw(GenerateConfig{Seed: 1, Scale: scale})
	if err != nil {
		b.Fatal(err)
	}
	benchFixedRaw[scale] = [3]any{attacks, botnets, bots}
	return attacks, botnets, bots
}

// gateFixedScale applies the skip policy described above.
func gateFixedScale(b *testing.B, scale float64) {
	b.Helper()
	if scale >= 10 && os.Getenv("BOTSCOPE_BENCH_LARGE") == "" {
		b.Skip("set BOTSCOPE_BENCH_LARGE=1 to run scale-10 benchmarks")
	}
	if testing.Short() {
		b.Skip("fixed-scale benchmark skipped in -short mode")
	}
}

func BenchmarkNewStore(b *testing.B) {
	for _, scale := range []float64{1, 10} {
		b.Run(fmt.Sprintf("scale%g", scale), func(b *testing.B) {
			gateFixedScale(b, scale)
			attacks, botnets, bots := benchRawAt(b, scale)
			for b.Loop() {
				if _, err := NewStore(attacks, botnets, bots); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDetectCollaborations(b *testing.B) {
	for _, scale := range []float64{1, 10} {
		b.Run(fmt.Sprintf("scale%g", scale), func(b *testing.B) {
			gateFixedScale(b, scale)
			attacks, botnets, bots := benchRawAt(b, scale)
			store, err := NewStore(attacks, botnets, bots)
			if err != nil {
				b.Fatal(err)
			}
			store.Targets() // build the target index outside the timed region
			for b.Loop() {
				if n := len(core.DetectCollaborations(store)); n == 0 {
					b.Fatal("no collaborations detected")
				}
			}
		})
	}
}

// BenchmarkReadSnapshot pins "open allocates nothing per row": a cold
// open of the scale-1 snapshot file is the header walk, the CRCs, the
// range checks and one copy of the string table — budgeted in
// bench_thresholds.json well under the megabytes any per-row decode costs.
func BenchmarkReadSnapshot(b *testing.B) {
	b.Run("scale1", func(b *testing.B) {
		gateFixedScale(b, 1)
		store, err := NewStore(benchRawAt(b, 1))
		if err != nil {
			b.Fatal(err)
		}
		f, err := os.Create(filepath.Join(b.TempDir(), "scale1.bscs"))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		if err := WriteSnapshot(f, store); err != nil {
			b.Fatal(err)
		}
		size, _ := f.Seek(0, io.SeekCurrent)
		b.SetBytes(size)
		for b.Loop() {
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				b.Fatal(err)
			}
			s, err := ReadSnapshot(f)
			if err != nil {
				b.Fatal(err)
			}
			if s.NumAttacks() != store.NumAttacks() {
				b.Fatalf("reopened %d of %d attacks", s.NumAttacks(), store.NumAttacks())
			}
			s.Close()
		}
	})
}

// BenchmarkDecodeJSONL and BenchmarkWriteJSONL pin the live feed's codec
// on the scale-1 feed (about 52 MB, 1 KB a record): MB/s from SetBytes,
// and allocations a record beside the per-pass figures benchguard budgets
// (bench_thresholds.json). keys_scale1 is the live tiers' decoder, which
// validates each record whole and keeps its key alone.
func BenchmarkDecodeJSONL(b *testing.B) {
	gateFixedScale(b, 1)
	attacks, _, _ := benchRawAt(b, 1)
	var feed bytes.Buffer
	if err := WriteJSONL(&feed, attacks); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func(io.Reader, func(*Attack) error) error
	}{
		{"scale1", DecodeJSONL},
		{"keys_scale1", dataset.DecodeJSONLKeys},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(feed.Len()))
			defer perRecord(b, len(attacks))()
			for b.Loop() {
				n := 0
				err := bc.decode(bytes.NewReader(feed.Bytes()), func(*Attack) error { n++; return nil })
				if err != nil || n != len(attacks) {
					b.Fatalf("decoded %d of %d records: %v", n, len(attacks), err)
				}
			}
		})
	}
}

func BenchmarkWriteJSONL(b *testing.B) {
	b.Run("scale1", func(b *testing.B) {
		gateFixedScale(b, 1)
		attacks, _, _ := benchRawAt(b, 1)
		var feed bytes.Buffer
		if err := WriteJSONL(&feed, attacks); err != nil { // sizes the buffer
			b.Fatal(err)
		}
		b.SetBytes(int64(feed.Len()))
		defer perRecord(b, len(attacks))()
		for b.Loop() {
			feed.Reset()
			if err := WriteJSONL(&feed, attacks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// perRecord starts counting allocations; the function it returns reports
// them per record for a benchmark whose operation is one pass over
// records records.
func perRecord(b *testing.B, records int) func() {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		n := float64(b.N) * float64(records)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
	}
}
