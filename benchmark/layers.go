package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"botscope/internal/cluster"
	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/monitor"
	"botscope/internal/serve"
	"botscope/internal/stream"
	"botscope/internal/timeseries"
)

// asRunLayers maps the as-run experiment spans that get a metric of their
// own to its name; every other experiment is summed into
// experiments.rest_ms.
var asRunLayers = map[string]string{
	"experiments.Ext: Defense":  "experiments.ext_defense_ms",
	"experiments.Figure 8":      "experiments.figure8_ms",
	"experiments.Figure 9":      "experiments.figure9_ms",
	"experiments.Figure 12":     "experiments.figure12_ms",
	"experiments.Table IV":      "experiments.table4_ms",
	"experiments.Ext: Transfer": "experiments.ext_transfer_ms",
	"experiments.Ext: Load":     "experiments.ext_load_ms",
	"experiments.Table III":     "experiments.table3_ms",
}

// autofitPoints is the series prefix timeseries.autofit_ms fits.
const autofitPoints = 1000

// byLayerSpans maps the by-layer pass's spans to their metrics.
var byLayerSpans = map[string]string{
	"dataset.index_build":    "dataset.index_build_ms",
	"dataset.summary":        "dataset.summary_ms",
	"core.collab_detect":     "core.collab_detect_ms",
	"core.dispersion":        "core.dispersion_ms",
	"core.blacklist":         "core.blacklist_ms",
	"core.chains":            "core.chains_ms",
	"core.concurrent_load":   "core.concurrent_load_ms",
	"monitor.weekly_sources": "monitor.weekly_sources_ms",
	"monitor.hourly_reports": "monitor.hourly_reports_ms",
	"timeseries.autofit":     "timeseries.autofit_ms",
	"timeseries.fit":         "timeseries.fit_ms",
}

// perLayer fills values with every per-layer metric. Whatever workload was
// traced, all layers are probed: the workload's own traced passes give
// trace.*, go.* and host.*; two traced pass shapes over the snapshot give
// the batch layers (as-run: a span per experiment in paper order, so a
// memo fill lands on its first user; by-layer: direct kernel calls on a
// fresh store); and direct calls into stream, serve and cluster give the
// live layers. Each value is a median over the repeats.
func (m *measurement) perLayer(ctx context.Context, values metricSet, tr *tracer) error {
	in, b := m.b.in, m.b

	values["synth.generate_s"] = in.GenerateS
	values["synth.attacks"] = float64(in.Attacks)
	values["synth.bots"] = float64(in.Bots)
	values["dataset.newstore_s"] = in.NewStoreS
	values["dataset.write_snapshot_s"] = in.WriteSnapshotS
	values["dataset.write_jsonl_s"] = in.WriteJSONLS
	values["dataset.snapshot_mb"] = mb(in.SnapshotBytes)
	values["dataset.feed_mb"] = mb(in.FeedBytes)

	values["go.gc_cpu_fraction"] = m.gcCPUFraction
	values["go.num_gc_per_pass"] = m.gcPerPass
	values["go.heap_inuse_peak_mb"] = m.heapInusePeakMB
	values["host.num_cpu"] = float64(runtime.NumCPU())
	values["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	values["host.steal_pct"] = m.stealPct
	values["host.psi_cpu_some"] = m.psiPct
	values["host.calib_ms"] = 1e3 * median(b.speed.samples)
	passWall, _ := b.speed.scale(m.passes)
	values["trace.overhead_pct"] = 100 * (median(m.tracedPassS)/median(passWall) - 1)

	// Batch layers. report_batch's own traced passes are as-run passes
	// already; for the other workloads run them here.
	probe := &bench{ctx: ctx, in: in}
	if m.def.name == "report_batch" {
		probe = b
	} else {
		asRun := &reportBatch{b: probe}
		for i := 0; i < m.sz.probeRepeats; i++ {
			runtime.GC()
			tr.nextPass()
			if err := asRun.pass(tr); err != nil {
				return fmt.Errorf("as-run pass: %w", err)
			}
		}
		if probe.failed > 0 {
			return fmt.Errorf("as-run pass: %s", strings.Join(probe.failures, "; "))
		}
	}
	values["report.render_kb"] = float64(probe.renderBytes) / 1024
	values["dataset.records_materialized"] = boolCount(probe.materialized)
	for i := 0; i < m.sz.probeRepeats; i++ {
		runtime.GC()
		tr.nextPass()
		if err := byLayerPass(in, tr); err != nil {
			return fmt.Errorf("by-layer pass: %w", err)
		}
	}
	self := selfTimes(tr.spans)
	var rest []string
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "experiments.") && asRunLayers[s.Name] == "" && s.Name != "experiments.from_store" {
			rest = append(rest, s.Name)
		}
	}
	values["experiments.rest_ms"] = median(layerMillis(tr.spans, self, rest...))
	for spanName, metric := range asRunLayers {
		values[metric] = median(layerMillis(tr.spans, self, spanName))
	}
	for spanName, metric := range byLayerSpans {
		values[metric] = median(layerMillis(tr.spans, self, spanName))
	}
	values["dataset.read_snapshot_ms"] = median(layerMillis(tr.spans, self, "dataset.read_snapshot"))

	// Live layers.
	if err := m.liveLayers(ctx, values); err != nil {
		return err
	}
	values["trace.spans"] = float64(len(tr.spans))
	return nil
}

func boolCount(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// byLayerPass opens a fresh store and calls each batch kernel directly,
// one span per layer, in dependency order (the dense bot index is built
// by dataset.index_build, so no kernel pays for it).
func byLayerPass(in *inputs, tr *tracer) error {
	root := tr.begin("by_layer.pass")
	defer tr.end(root)

	sp := tr.begin("dataset.read_snapshot")
	store, err := openSnapshot(in.Snapshot)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer store.Close()

	timed := func(name string, f func() error) error {
		sp := tr.begin(name)
		err := f()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	first, last, ok := store.TimeBounds()
	if !ok {
		return fmt.Errorf("empty workload")
	}
	split := first.Add(last.Sub(first) / 2) // the Ext: Defense train/evaluate split
	collector := monitor.NewCollector(store)
	disp := core.NewDispersionIndex(store)
	var series []float64

	steps := []struct {
		name string
		f    func() error
	}{
		{"dataset.index_build", func() error {
			store.Targets()
			store.Families()
			store.FamilyCounts()
			store.BotDense()
			return nil
		}},
		{"dataset.summary.first", func() error { store.Summary(); return nil }},
		{"dataset.summary", func() error { store.Summary(); return nil }},
		{"core.collab_detect", func() error {
			if len(core.DetectCollaborations(store)) == 0 {
				return fmt.Errorf("no collaborations detected")
			}
			return nil
		}},
		{"core.dispersion", func() error { disp.Precompute(1); return nil }},
		{"core.blacklist", func() error {
			bl, err := core.BuildBlacklist(store, time.Time{}, split, 0)
			if err != nil {
				return err
			}
			_, err = core.EvaluateBlacklist(store, bl, split, time.Time{})
			return err
		}},
		{"core.chains", func() error { core.AnalyzeChains(store); return nil }},
		{"core.concurrent_load", func() error { _, _, err := core.ConcurrentLoad(store); return err }},
		{"monitor.weekly_sources", func() error {
			for _, f := range dataset.ActiveFamilies {
				if _, err := collector.WeeklySources(f); err != nil {
					return err
				}
			}
			return nil
		}},
		{"monitor.hourly_reports", func() error {
			for _, f := range dataset.ActiveFamilies {
				if _, err := collector.HourlyReports(f); err != nil {
					return err
				}
			}
			return nil
		}},
		// No measured path calls AutoFit (Table IV, Figures 12-13 and
		// /predict all fix ARIMA(1,0,0)), and its MA fits take seconds on
		// the full series; a fixed-length prefix keeps the probe comparable
		// across scales and the traced run inside its time budget.
		{"timeseries.autofit", func() error {
			series = core.DispersionValues(disp.Series(dataset.Dirtjumper))
			_, err := timeseries.AutoFit(series[:min(len(series), autofitPoints)], 0, 2, 1)
			return err
		}},
		{"timeseries.fit", func() error {
			_, err := timeseries.Fit(series, timeseries.Order{P: 1})
			return err
		}},
	}
	for _, s := range steps {
		if err := timed(s.name, s.f); err != nil {
			return err
		}
	}
	return nil
}

// liveLayers times the layers under the live workloads by calling them
// directly: JSONL decode, stream apply and snapshot, the live routes' mux
// and JSON encode over a fixed snapshot, and the cluster's ingest path,
// snapshot fan-out, merge, ring and frame codec.
func (m *measurement) liveLayers(ctx context.Context, values metricSet) error {
	in, reps := m.b.in, m.sz.probeRepeats
	records := float64(in.Attacks)
	feed := func() io.Reader { return io.NewSectionReader(in.feed, 0, in.FeedBytes) }

	// dataset: decode the whole feed into nothing.
	var decodeS []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := dataset.DecodeJSONL(feed(), func(*dataset.Attack) error { return nil }); err != nil {
			return err
		}
		decodeS = append(decodeS, time.Since(start).Seconds())
	}
	values["dataset.jsonl_decode_krps"] = records / median(decodeS) / 1e3

	// stream: apply pre-decoded records; snapshot the end-of-feed state.
	attacks, err := dataset.ReadJSONL(feed())
	if err != nil {
		return err
	}
	var applyS []float64
	var an *stream.Analyzer
	for i := 0; i < reps; i++ {
		runtime.GC()
		an = stream.New()
		start := time.Now()
		for _, a := range attacks {
			if err := an.Ingest(a); err != nil {
				return err
			}
		}
		applyS = append(applyS, time.Since(start).Seconds())
	}
	values["stream.ingest_krps"] = records / median(applyS) / 1e3
	values["stream.snapshot_ms"] = medianMillis(50, func() { an.Snapshot() })

	// serve: the six live routes over a source that returns a fixed
	// snapshot, so only the mux and the JSON encode are timed; then the
	// tier's own count of refused ingests after a whole feed over HTTP.
	var rec recorder
	fixed := serve.NewLiveServer(fixedSource{snap: an.Snapshot()})
	values["serve.live_encode_ms"] = medianMillis(50, func() {
		for _, p := range livePaths {
			rec.get(fixed, p)
		}
	})
	tiny, err := tinyStore()
	if err != nil {
		return err
	}
	single := serve.New(tiny, 0.01)
	if err := rec.feedAll(single, in); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	rejected, err := ingestRejected(single, &rec)
	if err != nil {
		return err
	}
	values["serve.ingest_rejected"] = float64(rejected + m.b.rejected)

	// cluster: the frontend's ingest without HTTP, and its snapshot right
	// after an ingest (fan-out + merge) and again (cache hit).
	local, err := cluster.StartLocal(ctx, 2, 0, 0, 0)
	if err != nil {
		return err
	}
	defer local.Close()
	var ingestS float64
	var coldMS, cachedMS []float64
	for i := range in.Batches {
		start := time.Now()
		if _, _, err := local.Frontend.LiveIngest(ctx, in.batch(i)); err != nil {
			return fmt.Errorf("cluster probe: batch %d: %w", i, err)
		}
		ingestS += time.Since(start).Seconds()
		for _, dst := range []*[]float64{&coldMS, &cachedMS} {
			start := time.Now()
			if _, _, err := local.Frontend.LiveSnapshot(ctx); err != nil {
				return fmt.Errorf("cluster probe: snapshot after batch %d: %w", i, err)
			}
			*dst = append(*dst, time.Since(start).Seconds()*1e3)
		}
	}
	values["cluster.live_ingest_krps"] = records / ingestS / 1e3
	values["cluster.route_wire_share"] = 1 - (median(decodeS)+median(applyS))/ingestS
	values["cluster.snapshot_cold_ms"] = median(coldMS)
	values["cluster.snapshot_cached_ms"] = median(cachedMS)

	// cluster: merge two shard partials built the way shards build them —
	// full records for the owned partition, ticks for the rest.
	ring := cluster.NewRing(0, 1)
	parts := []*stream.Analyzer{stream.New(), stream.New()}
	for i, a := range attacks {
		owner := ring.Owner(a.TargetIP)
		for id, part := range parts {
			if id == owner {
				err = part.IngestAt(a, uint64(i+1))
			} else {
				err = part.Tick(a.ID, a.Start, a.End)
			}
			if err != nil {
				return fmt.Errorf("merge probe: record %d: %w", i, err)
			}
		}
	}
	snaps := []*cluster.ShardSnapshot{
		{ShardID: 0, Applied: uint64(len(attacks)), Snap: parts[0].Snapshot()},
		{ShardID: 1, Applied: uint64(len(attacks)), Snap: parts[1].Snapshot()},
	}
	values["cluster.merge_ms"] = medianMillis(50, func() { cluster.MergeSnapshots(snaps) })

	var ownerNS []float64
	for i := 0; i < max(reps, 3); i++ {
		start := time.Now()
		for _, a := range attacks {
			ring.Owner(a.TargetIP)
		}
		ownerNS = append(ownerNS, float64(time.Since(start).Nanoseconds())/records)
	}
	values["cluster.ring_owner_ns"] = median(ownerNS)

	payload := make([]byte, 256<<10)
	var buf []byte
	var frameErr error
	frameMS := medianMillis(200, func() {
		buf = cluster.AppendFrame(buf[:0], &cluster.Frame{ReqID: 1, Payload: payload})
		if _, err := cluster.DecodeFrame(buf); err != nil {
			frameErr = err
		}
	})
	if frameErr != nil {
		return fmt.Errorf("frame codec probe: %w", frameErr)
	}
	values["cluster.frame_codec_mbps"] = mb(int64(len(payload))) / (frameMS / 1e3)
	return nil
}

// medianMillis calls f n times and returns the median call time in ms.
func medianMillis(n int, f func()) float64 {
	ms := make([]float64, n)
	for i := range ms {
		start := time.Now()
		f()
		ms[i] = time.Since(start).Seconds() * 1e3
	}
	return median(ms)
}

// fixedSource is a serve.LiveSource that answers every query with one
// snapshot and accepts no ingest.
type fixedSource struct{ snap stream.Snapshot }

func (s fixedSource) LiveSnapshot(context.Context) (stream.Snapshot, []int, error) {
	return s.snap, nil, nil
}

func (s fixedSource) LiveIngest(context.Context, io.Reader) (int, int, error) {
	return 0, 0, os.ErrInvalid
}
