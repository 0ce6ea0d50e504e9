// Command benchmark is botscope's benchmark: four workloads, eight
// end-to-end metrics, and a traced run that times every layer from
// outside. BENCHMARK.json at the repository root declares the same names
// for the pipeline; README.md in this directory explains the choices.
//
// Usage (from the repository root):
//
//	go run ./benchmark -workload report_batch            # one workload, end to end
//	go run ./benchmark -workload all -seed 2             # all four, one child each
//	go run ./benchmark -workload live_sharded -trace 1   # per-layer metrics + span file
//	go run ./benchmark -aa 5                             # A/A: two alternating sets of 5 runs
//	go run ./benchmark -prepare DIR -workload all        # set-up only, with every reference digest
//	go run ./benchmark -workload live_single -inputs DIR # measure a prepared directory
//
// Set-up runs in a child process, so the measuring process receives only
// generated inputs and its peak RSS excludes generation. Every file a run
// writes lies under -workdir (default .bench_build in the current
// directory): the inputs, which the next run overwrites, and a traced
// run's span file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

const (
	fullScale  = 1.0  // 50,704 attacks, ~332k bots: the paper's workload
	smokeScale = 0.05 // drives every code path in a few seconds
	// exploreColdRounds is how many fresh cold starts warmup_s is the
	// median of on explore_warm. The issue asked for seven; a round is a
	// third of a second, which this host jitters by 10 %, and fifteen bring
	// the median's error down to the other timings'.
	exploreColdRounds = 15
)

// errOpsFailed marks a run whose checks failed: the result line is
// printed, then the process exits non-zero.
var errOpsFailed = errors.New("operations failed their output checks")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	dataSeed int64
	seconds  float64
	trace    int
	spans    string
	smoke    bool
	workdir  string
	inputs   string
	prepare  string
	aa       int
}

// scale is the input scale: the paper's size, or the smoke size.
func (o options) scale() float64 {
	if o.smoke {
		return smokeScale
	}
	return fullScale
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "report_batch, explore_warm, live_single, live_sharded, or all; with -prepare, whose reference digests to compute (none when empty)")
	fs.Int64Var(&o.seed, "seed", 1, "seeds the one input a run may vary at equal cost: the order of explore_warm's GET cycle")
	fs.Int64Var(&o.dataSeed, "data-seed", 1, "generator seed of the dataset; another value checks a claim on data it was not tuned on")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the timed region; whole passes run until it is reached")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default <workdir>/spans-<workload>.json)")
	fs.BoolVar(&o.smoke, "smoke", false, "scale 0.05 instead of 1 and two passes: checks the harness, measures nothing")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory every file of a run is written under")
	fs.StringVar(&o.inputs, "inputs", "", "measure this prepared directory instead of setting up (setup_s is its manifest's wall clock, scaled by this run's factor)")
	fs.StringVar(&o.prepare, "prepare", "", "set-up only: generate inputs and reference digests into this directory")
	fs.IntVar(&o.aa, "aa", 0, "A/A mode: run each workload this many times in two alternating sets and compare")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	switch {
	case o.prepare != "":
		return prepareInputs(o.prepare, o.dataSeed, o.smoke, o.workload)
	case o.aa > 0:
		return runAA(ctx, o, stdout)
	case o.workload == "all":
		return runAll(ctx, o, stdout)
	}
	def, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want report_batch, explore_warm, live_single, live_sharded or all)", o.workload)
	}
	return runOne(ctx, def, o, stdout)
}

// runOne sets up (unless -inputs names a prepared directory), measures one
// workload, and prints the result.
func runOne(ctx context.Context, def workloadDef, o options, stdout io.Writer) error {
	printRunValidity(stdout)
	dir, err := obtainInputs(ctx, o)
	if err != nil {
		return err
	}
	in, err := loadInputs(dir)
	if err != nil {
		return err
	}
	defer in.close()
	fmt.Fprintf(stdout, "inputs: data-seed %d scale %g: %d attacks, %d bots, snapshot %.1f MB, feed %.1f MB in %d batches of %d\n",
		in.DataSeed, in.Scale, in.Attacks, in.Bots, mb(in.SnapshotBytes), mb(in.FeedBytes), len(in.Batches), batchRecords)
	fmt.Fprintf(stdout, "set-up (wall clock): generate %.2f s, newstore %.2f s, encode snapshot %.2f s, encode feed %.2f s; %.2f s in all, and %.2f s putting them on disk\n",
		in.GenerateS, in.NewStoreS, in.WriteSnapshotS, in.WriteJSONLS, in.SetupWallS, in.DiskWriteS)

	var tr *tracer
	if o.trace != 0 {
		tr = newTracer()
	}
	m, err := measure(ctx, def, in, sizingFor(def, o), o.seed, tr, stdout)
	if err != nil {
		return err
	}

	values, defs := metricSet{}, endToEnd
	if tr == nil {
		m.endToEnd(values, stdout)
	} else {
		defs = perLayer
		if err := m.perLayer(ctx, values, tr); err != nil {
			return err
		}
		spans := o.spans
		if spans == "" {
			spans = filepath.Join(o.workdir, "spans-"+def.name+".json")
		}
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return err
		}
		if err := tr.write(spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), spans)
	}
	res, err := values.result(defs, m.b.attempted, m.b.failed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s:\n", def.name)
	if err := printResult(stdout, defs, res); err != nil {
		return err
	}
	if res.Failed > 0 {
		return errOpsFailed
	}
	return nil
}

// obtainInputs returns a prepared directory: the one -inputs names, or
// <workdir>/inputs, set up afresh by a child process. The directory is
// kept and its two large files are overwritten in place by the next run:
// on this sandbox's disk a new 75 MB of blocks costs 1.5-6 s to allocate,
// an overwrite 0.03 s. The child computes only the reference digests the
// run will check.
func obtainInputs(ctx context.Context, o options) (string, error) {
	if o.inputs != "" {
		return o.inputs, nil
	}
	dir := filepath.Join(o.workdir, "inputs")
	digests := o.workload
	if o.trace != 0 {
		digests = "all" // a traced run checks an as-run report pass too
	}
	if err := setUpInChild(ctx, dir, o, digests); err != nil {
		return "", fmt.Errorf("set-up: %w", err)
	}
	return dir, nil
}

// sizing is how much work a run does around the workload's own definition.
type sizing struct {
	seconds               float64
	minPasses, coldRounds int
	probeRepeats          int
	calibRounds           int
}

func sizingFor(def workloadDef, o options) sizing {
	if o.smoke {
		return sizing{seconds: 0, minPasses: 2, coldRounds: 2, probeRepeats: 1, calibRounds: 1}
	}
	sz := sizing{seconds: o.seconds, minPasses: def.minPasses, coldRounds: exploreColdRounds, probeRepeats: 5, calibRounds: calibRounds}
	if o.trace != 0 {
		sz.minPasses = max(sz.minPasses, 10) // every second pass is traced, and five traced passes make a median
	}
	return sz
}

// measurement is what one workload run observed.
type measurement struct {
	def workloadDef
	sz  sizing
	b   *bench

	passes           []timing  // the untraced passes
	tracedPassS      []float64 // the traced ones, wall clock
	allocMBPerPass   float64
	gcPerPass        float64
	gcCPUFraction    float64
	heapInusePeakMB  float64
	stealPct, psiPct float64
}

// measure warms the workload up and then runs whole passes until the timed
// region — explore_warm's cold rounds, which are measurements too, and the
// passes — reaches sz.seconds. With a tracer every second pass is traced, so
// one run yields both sides of trace.overhead_pct. Between passes, outside
// every timer and counter, the host's speed is sampled and a collection is
// forced, so that each pass starts from the same heap.
func measure(ctx context.Context, def workloadDef, in *inputs, sz sizing, seed int64, tr *tracer, stdout io.Writer) (*measurement, error) {
	b := &bench{ctx: ctx, in: in, seed: seed, coldRounds: sz.coldRounds, speed: hostSpeed{rounds: sz.calibRounds}}
	w, err := def.open(b)
	if err != nil {
		return nil, err
	}
	defer w.close()
	h0, wall0 := readHost(), time.Now()
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", def.name, err)
	}

	m := &measurement{def: def, sz: sz, b: b}
	var used goSample // summed over the passes alone
	passes := 0
	for ; b.measuredS < sz.seconds || passes < sz.minPasses; passes++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b.speed.keepUp(b.measuredS)
		runtime.GC()
		var passTracer *tracer
		if tr != nil && passes%2 == 1 {
			passTracer = tr
			tr.nextPass()
		}
		b.begin()
		g0, start := readGo(), time.Now()
		err := w.pass(passTracer)
		d := time.Since(start).Seconds()
		g1 := readGo()
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", def.name, passes, err)
		}
		if passTracer != nil {
			m.tracedPassS = append(m.tracedPassS, d)
		} else {
			m.passes = append(m.passes, timing{d, b.mark})
		}
		b.measuredS += d
		used.add(g1, g0)
		m.heapInusePeakMB = max(m.heapInusePeakMB, mb(int64(g1.heapInuse)))
	}
	b.speed.keepUp(b.measuredS)
	h1, wall := readHost(), time.Since(wall0).Seconds()

	n := float64(passes)
	m.allocMBPerPass = mb(int64(used.totalAlloc)) / n
	m.gcPerPass = float64(used.numGC-used.forcedGC) / n
	if used.totalCPUs > 0 {
		m.gcCPUFraction = used.gcCPU / used.totalCPUs
	}
	m.stealPct, m.psiPct = h1.stealPct(h0), h1.psiPct(h0, wall)

	fmt.Fprintf(stdout, "%s: %d passes, timed region %.2f s (wall %.2f s with calibration), %d cold rounds, %d ops\n",
		def.name, passes, b.measuredS, wall, len(b.warmup), len(b.ops))
	fmt.Fprintf(stdout, "host: calibration median %.3f s over %d samples (reference %.3f s), steal %.2f%% psi_cpu_some %.2f%%\n",
		median(b.speed.samples), len(b.speed.samples), calibRefS, m.stealPct, m.psiPct)
	fmt.Fprintf(stdout, "calibration samples, in the order taken (s): %.3f\n", b.speed.samples)
	fmt.Fprintf(stdout, "go: gc_cpu_fraction %.4f, %.1f GCs/pass, heap in use peak %.1f MB\n",
		m.gcCPUFraction, m.gcPerPass, m.heapInusePeakMB)
	if b.materialized {
		fmt.Fprintln(stdout, "flag: a report pass materialized attack records (dataset.records_materialized = 1): wasted work")
	}
	if b.rejected > 0 {
		b.fail(b.rejected, "the live tier refused %d ingest requests", b.rejected)
	}
	for _, f := range b.failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	return m, nil
}

// endToEnd fills values with the eight end-to-end metrics, printing each
// timing's sample count and wall-clock value beside it. Every timing is a
// median of samples each scaled by its own host-speed factor. report_batch
// and live_* begin every pass cold, so their cold start is the pass; and a
// workload that posts no feed takes its records in by opening the
// snapshot, so its intake rate is the records over its cold start.
func (m *measurement) endToEnd(values metricSet, stdout io.Writer) {
	b := m.b
	passWall, passS := b.speed.scale(m.passes)
	warmWall, warmupS := passWall, passS
	if len(b.warmup) > 0 {
		warmWall, warmupS = b.speed.scale(b.warmup)
	}
	intakeWall, intakeS := warmWall, warmupS
	if len(b.ingest) > 0 {
		intakeWall, intakeS = b.speed.scale(b.ingest)
	}
	krps := func(seconds []float64) float64 { return float64(b.in.Attacks) / median(seconds) / 1e3 }
	wallOps, ops := opMedians(b.ops, nil), opMedians(b.ops, &b.speed)
	p50, wall50 := median(ops), median(wallOps)
	p90, _ := percentile(ops, 0.90)
	wall90, _ := percentile(wallOps, 0.90)
	pooled := make([]float64, len(b.ops))
	for i, o := range b.ops {
		pooled[i] = o.ms * b.speed.factorAt(o.mark)
	}
	p99, ok99 := percentile(pooled, 0.99)

	setupFactor := b.speed.factorAt(0) // the set-up ended just before this run's first calibration samples
	values["setup_s"] = b.in.SetupWallS * setupFactor
	values["pass_s"] = median(passS)
	values["warmup_s"] = median(warmupS)
	values["ingest_krps"] = krps(intakeS)
	values["op_ms_p50"] = p50
	values["op_ms_p90"] = p90
	values["alloc_mb_per_pass"] = m.allocMBPerPass
	values["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(stdout, "samples: setup_s n=1, pass_s n=%d, warmup_s n=%d, ingest_krps n=%d, op_ms n=%d over %d operations\n",
		len(passS), len(warmupS), len(intakeS), len(b.ops), len(ops))
	fmt.Fprintf(stdout, "wall clock, before scaling by the speed factors: setup_s %.4f, pass_s %.4f, warmup_s %.4f, ingest_krps %.2f, op_ms_p50 %.4f, op_ms_p90 %.4f\n",
		b.in.SetupWallS, median(passWall), median(warmWall), krps(intakeWall), wall50, wall90)
	if len(passWall) <= 20 {
		fmt.Fprintf(stdout, "pass_s samples (wall clock): %.3f, scaled: %.3f\n", passWall, passS)
	}
	if len(b.warmup) > 0 {
		fmt.Fprintf(stdout, "warmup_s samples (wall clock): %.3f\n", warmWall)
	}
	fmt.Fprintf(stdout, "note: op_ms_p50 and op_ms_p90 are over the %d operations' medians, not over a pool\n", len(ops))
	if len(ops) <= 50 {
		fmt.Fprintf(stdout, "operations' medians (ms, scaled, ascending): %.3g\n", sortedCopy(ops))
	}
	fmt.Fprintf(stdout, "op_ms_p99 (not gated, over the pool of %d): %.4f ms\n", len(pooled), p99)
	if !ok99 {
		fmt.Fprintln(stdout, "note: fewer than ten samples lie beyond p99; read it as a maximum, not a percentile")
	}
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }
