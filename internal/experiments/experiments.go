// Package experiments regenerates every table and figure of the paper's
// evaluation from a (synthetic) workload. Each experiment returns the
// rendered text plus its headline metrics side by side with the paper's
// published values, so EXPERIMENTS.md can be produced mechanically and the
// benches in the repository root can time each regeneration.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/memo"
	"botscope/internal/monitor"
)

// Metric is one measurable quantity of an experiment, with the paper's
// reference value when the paper publishes one (NaN-free: PaperKnown
// reports whether Paper is meaningful).
type Metric struct {
	Name       string
	Measured   float64
	Paper      float64
	PaperKnown bool
}

// Result is the outcome of regenerating one table or figure.
type Result struct {
	// ID is the paper's label, e.g. "Table II" or "Figure 3".
	ID string
	// Title describes what the experiment shows.
	Title string
	// Text is the rendered table/chart.
	Text string
	// Metrics are the headline numbers, paper-aligned where available.
	Metrics []Metric
}

// AddMetric appends a measured-only metric.
func (r *Result) AddMetric(name string, measured float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Measured: measured})
}

// AddPaperMetric appends a metric with the paper's reference value.
func (r *Result) AddPaperMetric(name string, measured, paper float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Measured: measured, Paper: paper, PaperKnown: true})
}

// MetricsText renders the metrics block under the experiment.
func (r *Result) MetricsText() string {
	if len(r.Metrics) == 0 {
		return ""
	}
	var b strings.Builder
	for _, m := range r.Metrics {
		if m.PaperKnown {
			fmt.Fprintf(&b, "  %-42s measured %12.3f   paper %12.3f\n", m.Name, m.Measured, m.Paper)
		} else {
			fmt.Fprintf(&b, "  %-42s measured %12.3f\n", m.Name, m.Measured)
		}
	}
	return b.String()
}

// Workload bundles the generated dataset with the knobs experiments need.
//
// It is the one holder of the derived products that belong to a store but
// live above dataset — the monitoring collector, the §II-B/§III overview
// products (products.go: protocols, daily series, intervals, durations,
// concurrent load, target-country rankings), the per-family dispersion
// series, profiles, ARIMA fits and scored forecasts, and the §V products
// (collaborations with their Table VI statistics, chains) — for the
// experiments, the serve tier and the library's Analyzer alike. Each is
// built once, on first use, and safe for concurrent use (serve's
// handlers, TestWorkloadConcurrentAll); a product's slice comes out as a
// memo.View, and the slices and maps inside a returned struct are shared
// and must not be modified. Every product is a heap value: a
// closed store's reader gets ErrStoreClosed from the runner or the
// handler's hold, never a product in its place.
type Workload struct {
	Store *dataset.Store
	// Scale is the generation scale (1.0 = paper size); experiments use it
	// to scale count expectations.
	Scale float64

	collector *monitor.Collector
	disp      *core.DispersionIndex // internally synchronized

	protocols memo.Lazy[[]core.ProtocolCount]
	daily     memo.Lazy[dailyProduct]
	feed      memo.Lazy[*feedProducts]
	famGaps   memo.Lazy[map[dataset.Family]*gapSeries]
	targets   memo.Lazy[map[dataset.Family]core.TargetCountryProfile]

	collabs     memo.Lazy[[]*core.Collaboration]
	collabStats memo.Lazy[core.CollabStats]
	chains      memo.Lazy[core.ChainStats]
}

// Collector returns the workload's monitoring collector (Fig 8, the
// hourly pipeline, botnet activity).
func (w *Workload) Collector() *monitor.Collector { return w.collector }

// Disp returns the workload's shared dispersion index.
func (w *Workload) Disp() *core.DispersionIndex { return w.disp }

// Collabs returns the workload's collaboration list (paper criteria),
// detecting it on first call and serving the one list afterwards.
func (w *Workload) Collabs() memo.View[*core.Collaboration] {
	return memo.ViewOf(w.collabs.Get(func() []*core.Collaboration { return core.DetectCollaborations(w.Store) }))
}

// CollabStats returns Table VI over Collabs, aggregated on first call and
// shared afterwards: its maps must not be modified.
func (w *Workload) CollabStats() core.CollabStats {
	return w.collabStats.Get(w.buildCollabStats)
}

func (w *Workload) buildCollabStats() core.CollabStats {
	return core.AnalyzeCollaborationsFrom(w.Collabs())
}

// Chains returns the workload's multistage-attack summary (Figs 17-18),
// detecting the chains on first call and serving the shared result
// afterwards.
func (w *Workload) Chains() core.ChainStats {
	return w.chains.Get(func() core.ChainStats { return core.AnalyzeChains(w.Store) })
}

// FromStore wraps an existing store (e.g. loaded from a snapshot or JSONL).
func FromStore(store *dataset.Store, scale float64) *Workload {
	if scale <= 0 {
		scale = 1
	}
	return &Workload{
		Store:     store,
		Scale:     scale,
		collector: monitor.NewCollector(store),
		disp:      core.NewDispersionIndex(store),
	}
}

// Experiment pairs an ID with its regeneration function.
type Experiment struct {
	ID  string
	Run func() (*Result, error)
}

// All lists every experiment in paper order. Each runner answers
// dataset.ErrStoreClosed once the store is closed: on a mapped store the
// columns are gone, and the one check at entry is what stands between a
// late caller and a fault — the kernels behind it stay branch-free.
func (w *Workload) All() []Experiment {
	all := []Experiment{
		{ID: "Figure 1", Run: w.Figure1},
		{ID: "Table II", Run: w.TableII},
		{ID: "Table III", Run: w.TableIII},
		{ID: "Figure 2", Run: w.Figure2},
		{ID: "Figure 3", Run: w.Figure3},
		{ID: "Figure 4", Run: w.Figure4},
		{ID: "Figure 5", Run: w.Figure5},
		{ID: "Figure 6", Run: w.Figure6},
		{ID: "Figure 7", Run: w.Figure7},
		{ID: "Figure 8", Run: w.Figure8},
		{ID: "Figure 9", Run: w.Figure9},
		{ID: "Figure 10", Run: w.Figure10},
		{ID: "Figure 11", Run: w.Figure11},
		{ID: "Figure 12", Run: w.Figure12},
		{ID: "Figure 13", Run: w.Figure13},
		{ID: "Table IV", Run: w.TableIV},
		{ID: "Table V", Run: w.TableV},
		{ID: "Figure 14", Run: w.Figure14},
		{ID: "Table VI", Run: w.TableVI},
		{ID: "Figure 15", Run: w.Figure15},
		{ID: "Figure 16", Run: w.Figure16},
		{ID: "Figure 17", Run: w.Figure17},
		{ID: "Figure 18", Run: w.Figure18},
		// Extensions: analyses the paper proposes but does not evaluate.
		{ID: "Ext: Load", Run: w.ExtLoad},
		{ID: "Ext: Diurnal", Run: w.ExtDiurnal},
		{ID: "Ext: Defense", Run: w.ExtDefense},
		{ID: "Ext: Transfer", Run: w.ExtTransfer},
	}
	for i := range all {
		run := all[i].Run
		all[i].Run = func() (*Result, error) {
			release, ok := w.Store.Hold()
			if !ok {
				return nil, dataset.ErrStoreClosed
			}
			defer release()
			return run()
		}
	}
	return all
}

// Outcome is what one experiment produced: its Result, or the error that
// replaced it.
type Outcome struct {
	ID  string
	Res *Result
	Err error
}

// Run executes exps in order on the calling goroutine and returns one
// Outcome per experiment, in the order given. An experiment not yet
// started when ctx is done is reported as a failure; a running one
// finishes normally (analyses are CPU-bound and short, and parallelise
// inside their kernels). The error is nil only if every experiment
// succeeded, and otherwise names each failure by ID.
func Run(ctx context.Context, exps []Experiment) ([]Outcome, error) {
	outs := make([]Outcome, len(exps))
	for i, e := range exps {
		outs[i].ID = e.ID
		if err := ctx.Err(); err != nil {
			outs[i].Err = fmt.Errorf("canceled: %w", err)
			continue
		}
		outs[i].Res, outs[i].Err = e.Run()
	}
	var errs []string
	for _, o := range outs {
		if o.Err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", o.ID, o.Err))
		}
	}
	if len(errs) > 0 {
		return outs, fmt.Errorf("experiments: %s", strings.Join(errs, "; "))
	}
	return outs, nil
}
