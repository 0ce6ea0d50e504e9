package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one named metric. bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics have none. BENCHMARK.json repeats this
// table for the pipeline, and a unit test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists what a user of the system sees. The pipeline wants every
// workload to emit every one of them, so where the issue marked a metric
// for some workloads only, the others report the nearest thing they have:
//
//   - setup_s: generate + index + write snapshot + write feed in the run's
//     set-up child;
//   - pass_s: median seconds of one pass;
//   - warmup_s: median cold start of explore_warm (snapshot open, server,
//     first full route cycle; fifteen rounds); report_batch and live_*
//     begin every pass cold, so theirs is pass_s;
//   - ingest_krps: thousand records taken in per second — the feed over the
//     pass's POST /api/ingest time for live_*, the snapshot's attacks over
//     the cold start for report_batch and explore_warm;
//   - op_ms_p50/p90: one six-panel refresh (live_*), one GET (explore_warm),
//     one experiment run and rendered (report_batch); percentiles over the
//     operations' medians (see bench.ops);
//   - alloc_mb_per_pass: heap bytes allocated per pass;
//   - peak_rss_mb: VmHWM of the measuring process (set-up runs in a child).
//
// Every timing is a median of wall-clock samples each scaled by its own
// host-speed factor (calib.go). The pipeline refuses the benchmark when
// the quartile spread of ten runs exceeds a metric's bound, and wants it
// below a third of the bound. On this host the scaled timings spread 3-9 %
// over ten runs on a quiet hour and up to 17 % on a restless one, so every
// timing carries 0.25, the widest the pipeline allows; setup_s has one
// sample a run (8-17 %). peak_rss_mb spreads 0.5-10 % (a 20 MB process
// moves by when the collector ran). alloc_mb_per_pass repeats to five
// digits and carries the sharp bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.25},
	{"warmup_s", "s", "lower", 0.25},
	{"ingest_krps", "krec/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"alloc_mb_per_pass", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer lists the layer metrics of a traced run, named
// <module>.<metric>. README.md says which end-to-end metric each should
// move, and on which workload.
var perLayer = []metricDef{
	{name: "synth.generate_s", unit: "s", better: "lower"},
	{name: "synth.attacks", unit: "count", better: "higher"},
	{name: "synth.bots", unit: "count", better: "higher"},
	{name: "dataset.newstore_s", unit: "s", better: "lower"},
	{name: "dataset.write_snapshot_s", unit: "s", better: "lower"},
	{name: "dataset.write_jsonl_s", unit: "s", better: "lower"},
	{name: "dataset.snapshot_mb", unit: "MB", better: "lower"},
	{name: "dataset.feed_mb", unit: "MB", better: "lower"},
	{name: "dataset.read_snapshot_ms", unit: "ms", better: "lower"},
	{name: "dataset.index_build_ms", unit: "ms", better: "lower"},
	{name: "dataset.summary_ms", unit: "ms", better: "lower"},
	{name: "dataset.records_materialized", unit: "count", better: "lower"},
	{name: "dataset.jsonl_decode_krps", unit: "krec/s", better: "higher"},
	{name: "core.collab_detect_ms", unit: "ms", better: "lower"},
	{name: "core.dispersion_ms", unit: "ms", better: "lower"},
	{name: "core.blacklist_ms", unit: "ms", better: "lower"},
	{name: "core.chains_ms", unit: "ms", better: "lower"},
	{name: "core.concurrent_load_ms", unit: "ms", better: "lower"},
	{name: "monitor.weekly_sources_ms", unit: "ms", better: "lower"},
	{name: "monitor.hourly_reports_ms", unit: "ms", better: "lower"},
	{name: "timeseries.autofit_ms", unit: "ms", better: "lower"},
	{name: "timeseries.fit_ms", unit: "ms", better: "lower"},
	{name: "experiments.ext_defense_ms", unit: "ms", better: "lower"},
	{name: "experiments.figure8_ms", unit: "ms", better: "lower"},
	{name: "experiments.figure9_ms", unit: "ms", better: "lower"},
	{name: "experiments.figure12_ms", unit: "ms", better: "lower"},
	{name: "experiments.table4_ms", unit: "ms", better: "lower"},
	{name: "experiments.ext_transfer_ms", unit: "ms", better: "lower"},
	{name: "experiments.ext_load_ms", unit: "ms", better: "lower"},
	{name: "experiments.table3_ms", unit: "ms", better: "lower"},
	{name: "experiments.rest_ms", unit: "ms", better: "lower"},
	{name: "report.render_kb", unit: "KB", better: "lower"},
	{name: "stream.ingest_krps", unit: "krec/s", better: "higher"},
	{name: "stream.snapshot_ms", unit: "ms", better: "lower"},
	{name: "serve.live_encode_ms", unit: "ms", better: "lower"},
	{name: "serve.ingest_rejected", unit: "count", better: "lower"},
	{name: "cluster.live_ingest_krps", unit: "krec/s", better: "higher"},
	{name: "cluster.route_wire_share", unit: "ratio", better: "lower"},
	{name: "cluster.snapshot_cold_ms", unit: "ms", better: "lower"},
	{name: "cluster.snapshot_cached_ms", unit: "ms", better: "lower"},
	{name: "cluster.merge_ms", unit: "ms", better: "lower"},
	{name: "cluster.ring_owner_ns", unit: "ns", better: "lower"},
	{name: "cluster.frame_codec_mbps", unit: "MB/s", better: "higher"},
	{name: "go.gc_cpu_fraction", unit: "ratio", better: "lower"},
	{name: "go.num_gc_per_pass", unit: "count", better: "lower"},
	{name: "go.heap_inuse_peak_mb", unit: "MB", better: "lower"},
	{name: "host.num_cpu", unit: "count", better: "higher"},
	{name: "host.gomaxprocs", unit: "count", better: "higher"},
	{name: "host.steal_pct", unit: "%", better: "lower"},
	{name: "host.psi_cpu_some", unit: "%", better: "lower"},
	{name: "host.calib_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
}

// metricValue is one measured metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as the last line of its
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects measured values by name and turns them into the
// result line, insisting that exactly the declared metrics are present.
type metricSet map[string]float64

func (m metricSet) result(defs []metricDef, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(m) != len(defs) {
		return r, fmt.Errorf("measured %d metrics, declared %d", len(m), len(defs))
	}
	return r, nil
}

// printResult writes the human-readable lines and then the result line.
func printResult(w io.Writer, defs []metricDef, r result) error {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "  %-30s %14d\n  %-30s %14d\n", "ops_attempted", r.Attempted, "ops_failed", r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
