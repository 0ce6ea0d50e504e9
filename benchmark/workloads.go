package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"time"

	"botscope/internal/cluster"
	"botscope/internal/dataset"
	"botscope/internal/experiments"
	"botscope/internal/serve"
	"botscope/internal/synth"
)

// workloadDef names one workload and records why it exists; BENCHMARK.json
// carries the same names and reasons.
type workloadDef struct {
	name string
	why  string
	// minPasses is the fewest timed passes a full-size run makes, however
	// short --seconds is.
	minPasses int
	open      func(*bench) (workload, error)
}

var workloadDefs = []workloadDef{
	{
		name: "report_batch", minPasses: 7,
		why:  "botreport path: every pass opens the snapshot cold and runs all 28 experiments; core/monitor/timeseries kernels do the work, stream/cluster/serve none",
		open: func(b *bench) (workload, error) { return &reportBatch{b: b}, nil },
	},
	{
		name: "explore_warm", minPasses: 50,
		why:  "botserve path: small keyed GETs over a warm store; same dataset/core layers used the other way, so memo/index changes show and kernel rewrites should not",
		open: openExploreWarm,
	},
	{
		name: "live_single", minPasses: 7,
		why:  "single-process stream path: closed loop of ingest POSTs each followed by a six-panel refresh; JSONL decode dominates; bypasses every cluster optimisation",
		open: func(b *bench) (workload, error) { return openLive(b, false) },
	},
	{
		name: "live_sharded", minPasses: 7,
		why:  "same loop through a 2-shard loopback cluster: adds ring route, BSCW codec, shard queue, snapshot fan-out and merge; cluster gains show only here",
		open: func(b *bench) (workload, error) { return openLive(b, true) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// workload is what the measuring loop drives. warm runs once before the
// timed passes, for state the passes share; pass is one timed pass. They
// record their samples on the bench and return an error only for harness
// failures — a wrong or refused answer is counted in the bench's failed
// ops instead.
type workload interface {
	warm() error
	pass(tr *tracer) error
	close()
}

// bench is the state one workload run shares: inputs, sizing, and the
// samples the metrics are computed from.
type bench struct {
	ctx        context.Context
	in         *inputs
	seed       int64 // orders explore_warm's GET cycles
	coldRounds int   // fresh cold starts explore_warm makes for warmup_s

	speed     hostSpeed
	measuredS float64 // wall seconds of cold rounds and passes so far; paces the calibration
	mark      int     // calibration samples taken when the current cold round or pass began

	warmup []timing // explore_warm: one per cold round
	ingest []timing // live_*: one pass's POST /api/ingest time
	// ops are the operations of every pass: an experiment (report_batch), a
	// GET (explore_warm), a six-panel refresh (live_*). Each pass repeats
	// the same ones, told apart by key. Pooled, a percentile falls into a
	// gap between two operations' samples — between the third- and
	// fourth-dearest experiment, between the refreshes a collection cycle
	// ran into and the others — and jumps across it with the pass count and
	// the host's mood (8-55 % between identical runs), so op_ms_p50 and
	// op_ms_p90 are taken over each operation's median.
	ops []opSample

	attempted, failed int
	failures          []string // first few failure descriptions, for the human report

	renderBytes  int  // Text+MetricsText bytes of the last report pass
	materialized bool // any report pass materialized records
	rejected     int  // ingest requests the live tier refused
}

// timing is one wall-clock measurement and where it lies among the run's
// calibration samples, which says what host-speed factor scales it.
type timing struct {
	seconds float64
	mark    int
}

// opSample is one operation's wall-clock milliseconds; key tells which of
// the pass's operations it was.
type opSample struct {
	key  int
	ms   float64
	mark int
}

func (b *bench) op(key int, d time.Duration) {
	b.ops = append(b.ops, opSample{key: key, ms: d.Seconds() * 1e3, mark: b.mark})
}

// begin marks where a cold round or pass lies among the calibration
// samples; called after the samples that precede it are taken.
func (b *bench) begin() { b.mark = len(b.speed.samples) }

// fail counts n failed operations and keeps the first few reasons.
func (b *bench) fail(n int, format string, args ...any) {
	b.failed += n
	if len(b.failures) < 5 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// ---- report_batch ----

type reportBatch struct{ b *bench }

func (w *reportBatch) warm() error { return nil }
func (w *reportBatch) close()      {}

func (w *reportBatch) pass(tr *tracer) error {
	b := w.b
	root := tr.begin("report_batch.pass")
	defer tr.end(root)

	sp := tr.begin("dataset.read_snapshot")
	store, err := openSnapshot(b.in.Snapshot)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer store.Close()

	digest, n, ops, err := runReport(store, b.in.Scale, tr, b.op)
	b.attempted += ops
	if err != nil {
		b.fail(ops, "report_batch: %v", err)
		return nil
	}
	b.renderBytes = n
	b.materialized = b.materialized || store.RecordsMaterialized()
	if want := b.in.Expect.Report; digest != want {
		b.fail(ops, "report_batch: report digest %s, reference %s", digest, want)
	}
	return nil
}

func openSnapshot(path string) (*dataset.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	return dataset.ReadSnapshot(f)
}

// runReport runs the 28 experiments in paper order over store and renders
// each one, as botreport does. It returns the SHA-256 of everything
// rendered, the rendered byte count, and how many experiments it ran; op
// receives each experiment's place in the order and its run+render time.
func runReport(store *dataset.Store, scale float64, tr *tracer, op func(int, time.Duration)) (digest string, n, ops int, err error) {
	sp := tr.begin("experiments.from_store")
	all := experiments.FromStore(store, scale).All()
	tr.end(sp)
	h := sha256.New()
	for i, e := range all {
		sp := tr.begin("experiments." + e.ID)
		start := time.Now()
		res, rerr := e.Run()
		var text string
		if rerr == nil {
			text = fmt.Sprintf("== %s — %s\n%s%s\n", res.ID, res.Title, res.Text, res.MetricsText())
		}
		op(i, time.Since(start))
		tr.end(sp)
		ops++
		if rerr != nil {
			return "", n, len(all), fmt.Errorf("%s: %w", e.ID, rerr)
		}
		n += len(text)
		io.WriteString(h, text)
	}
	return hex.EncodeToString(h.Sum(nil)), n, ops, nil
}

// ---- explore_warm ----

type exploreWarm struct {
	b     *bench
	store *dataset.Store
	srv   *serve.Server
	paths []string
	ref   [][]byte // body of each path on the first cycle
	rng   *rand.Rand
	order []int
	rec   recorder
}

// explorePaths is the full GET cycle: eight workload-wide routes plus four
// keyed routes for each of the ten active families, 48 in all.
func explorePaths() []string {
	paths := []string{
		"/api/summary", "/api/protocols", "/api/daily", "/api/intervals",
		"/api/durations", "/api/families", "/api/collaborations", "/api/chains",
	}
	for _, f := range dataset.ActiveFamilies {
		paths = append(paths,
			"/api/family/"+string(f)+"/dispersion",
			"/api/family/"+string(f)+"/predict",
			"/api/family/"+string(f)+"/targets",
			"/api/intervals?family="+string(f))
	}
	return paths
}

// exploreReference answers the full cycle from a server over store and
// returns the SHA-256 of every body that came back 200. A route the
// workload cannot answer (the paper skips prediction for a family with
// fewer than 40 dispersion points, and so does the server) is left out of
// the cycle rather than counted as a failure on every pass.
func exploreReference(store *dataset.Store, scale float64) map[string]string {
	srv := serve.New(store, scale)
	var rec recorder
	ref := make(map[string]string)
	for _, p := range explorePaths() {
		if rec.get(srv, p) == http.StatusOK {
			sum := sha256.Sum256(rec.body.Bytes())
			ref[p] = hex.EncodeToString(sum[:])
		}
	}
	return ref
}

// openExploreWarm keeps the routes the reference server answered, in
// cycle order.
func openExploreWarm(b *bench) (workload, error) {
	w := &exploreWarm{b: b, rng: rand.New(rand.NewSource(b.seed))}
	for _, p := range explorePaths() {
		if b.in.Expect.Explore[p] != "" {
			w.paths = append(w.paths, p)
		}
	}
	if len(w.paths) == 0 {
		return nil, fmt.Errorf("explore_warm: expect.json lists no answered route")
	}
	return w, nil
}

// cold is a dashboard's wait after a restart: open the snapshot, build the
// server, answer every route once (which fills the memos and indexes).
func (w *exploreWarm) cold() error {
	w.b.begin()
	start := time.Now()
	store, srv, err := w.openServer()
	if err != nil {
		return err
	}
	defer store.Close()
	if _, err := w.firstCycle(srv); err != nil {
		return err
	}
	d := time.Since(start).Seconds()
	w.b.warmup = append(w.b.warmup, timing{d, w.b.mark})
	w.b.measuredS += d
	return nil
}

func (w *exploreWarm) openServer() (*dataset.Store, *serve.Server, error) {
	store, err := openSnapshot(w.b.in.Snapshot)
	if err != nil {
		return nil, nil, err
	}
	return store, serve.New(store, w.b.in.Scale), nil
}

// firstCycle issues the paths in their listed order and returns the
// bodies. A non-200 here is a harness failure: the cycle holds only
// routes the reference server answered.
func (w *exploreWarm) firstCycle(srv *serve.Server) ([][]byte, error) {
	bodies := make([][]byte, len(w.paths))
	for i, p := range w.paths {
		if status := w.rec.get(srv, p); status != http.StatusOK {
			return nil, fmt.Errorf("explore_warm: GET %s: status %d: %s", p, status, bytes.TrimSpace(w.rec.body.Bytes()))
		}
		bodies[i] = bytes.Clone(w.rec.body.Bytes())
	}
	return bodies, nil
}

// warm first makes the cold rounds warmup_s is the median of. Each builds
// and drops a whole store, so freed memory goes back to the OS before the
// next: without that peak_rss_mb depended on when the collector happened
// to run (110 to 172 MB between identical runs, 109.6 to 110.0 MB with
// it). It then opens the store the timed passes share and fills its memos
// with one unshuffled cycle. Its bodies must equal the reference server's
// — the generated store's answers, before the snapshot round trip — and
// every later cycle must repeat them byte for byte.
func (w *exploreWarm) warm() error {
	for i := 0; i < w.b.coldRounds; i++ {
		w.b.speed.keepUp(w.b.measuredS)
		debug.FreeOSMemory()
		if err := w.cold(); err != nil {
			return fmt.Errorf("cold round %d: %w", i, err)
		}
	}
	debug.FreeOSMemory()
	store, srv, err := w.openServer()
	if err != nil {
		return err
	}
	w.store, w.srv = store, srv
	if w.ref, err = w.firstCycle(srv); err != nil {
		return err
	}
	w.order = make([]int, len(w.paths))
	for i, p := range w.paths {
		w.order[i] = i
		sum := sha256.Sum256(w.ref[i])
		w.b.attempted++
		if got := hex.EncodeToString(sum[:]); got != w.b.in.Expect.Explore[p] {
			w.b.fail(1, "explore_warm: GET %s: body digest %s, reference %s", p, got, w.b.in.Expect.Explore[p])
		}
	}
	return nil
}

func (w *exploreWarm) pass(tr *tracer) error {
	b := w.b
	w.rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })

	root := tr.begin("explore_warm.pass")
	defer tr.end(root)
	for _, i := range w.order {
		sp := tr.begin("serve.get")
		start := time.Now()
		status := w.rec.get(w.srv, w.paths[i])
		b.op(i, time.Since(start))
		tr.end(sp)
		b.attempted++
		switch {
		case status != http.StatusOK:
			b.fail(1, "explore_warm: GET %s: status %d", w.paths[i], status)
		case !bytes.Equal(w.rec.body.Bytes(), w.ref[i]):
			b.fail(1, "explore_warm: GET %s: body differs from the first cycle's", w.paths[i])
		}
	}
	return nil
}

func (w *exploreWarm) close() {
	if w.store != nil {
		w.store.Close()
	}
}

// ---- live_single / live_sharded ----

// livePaths are the six dashboard panels, refreshed in this order.
var livePaths = []string{
	"/api/live/summary", "/api/live/daily", "/api/live/intervals",
	"/api/live/durations", "/api/live/load", "/api/live/collaborations",
}

type live struct {
	b       *bench
	sharded bool
	tiny    *dataset.Store // the batch store serve.New wants; never queried
	rec     recorder
}

func openLive(b *bench, sharded bool) (workload, error) {
	tiny, err := tinyStore()
	if err != nil {
		return nil, err
	}
	return &live{b: b, sharded: sharded, tiny: tiny}, nil
}

// tinyStore is the small batch workload a single-process server is built
// over, as cmd/botload does; the live routes never touch it.
func tinyStore() (*dataset.Store, error) {
	return synth.GenerateStore(synth.Config{Seed: 1, Scale: 0.01})
}

func (w *live) warm() error { return nil }
func (w *live) close()      {}

// tier builds the serve tier under test and returns its handler and a
// function that tears it down.
func (w *live) tier() (http.Handler, func(), error) {
	if !w.sharded {
		return serve.New(w.tiny, 0.01), func() {}, nil
	}
	return shardedTier(w.b.ctx)
}

func shardedTier(ctx context.Context) (http.Handler, func(), error) {
	local, err := cluster.StartLocal(ctx, 2, 0, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	h := serve.NewLiveServer(local.Frontend, serve.WithClusterAdmin(local.Frontend))
	return h, local.Close, nil
}

func (w *live) pass(tr *tracer) error {
	b := w.b
	root := tr.begin("live.pass")
	defer tr.end(root)

	sp := tr.begin("serve.tier_start")
	h, stop, err := w.tier()
	tr.end(sp)
	if err != nil {
		return err
	}
	defer func() {
		sp := tr.begin("serve.tier_stop")
		stop()
		tr.end(sp)
	}()

	before := b.failed
	var posting time.Duration
	var final liveBodies
	ops := 0
	for i := range b.in.Batches {
		sp := tr.begin("serve.ingest")
		start := time.Now()
		status := w.rec.post(h, b.in, i)
		posting += time.Since(start)
		tr.end(sp)
		ops++
		if status != http.StatusOK {
			b.fail(1, "POST /api/ingest batch %d: status %d: %s", i, status, bytes.TrimSpace(w.rec.body.Bytes()))
		}

		sp = tr.begin("serve.refresh")
		start = time.Now()
		for j, p := range livePaths {
			status := w.rec.get(h, p)
			ops++
			if status != http.StatusOK {
				b.fail(1, "GET %s after batch %d: status %d", p, i, status)
			}
			if i == len(b.in.Batches)-1 {
				final[j] = bytes.Clone(w.rec.body.Bytes())
			}
		}
		b.op(i, time.Since(start))
		tr.end(sp)
	}
	b.attempted += ops
	b.ingest = append(b.ingest, timing{posting.Seconds(), b.mark})

	rejected, err := ingestRejected(h, &w.rec)
	if err != nil {
		return err
	}
	b.rejected += rejected
	// Merge parity: whatever tier served it, the final refresh must equal
	// the reference single-process server's, byte for byte.
	if got := final.digests(); b.failed == before && !maps.Equal(got, b.in.Expect.Live) {
		b.fail(ops, "final refresh differs from the reference: got %v", got)
	}
	return nil
}

// ingestRejected reads the tier's own count of refused ingest requests.
func ingestRejected(h http.Handler, rec *recorder) (int, error) {
	if status := rec.get(h, "/api/live/ingeststats"); status != http.StatusOK {
		return 0, fmt.Errorf("GET /api/live/ingeststats: status %d", status)
	}
	var st struct {
		Rejected int `json:"rejected"`
	}
	if err := json.Unmarshal(rec.body.Bytes(), &st); err != nil {
		return 0, fmt.Errorf("ingeststats: %w", err)
	}
	return st.Rejected, nil
}

// liveBodies holds one refresh's six response bodies, in livePaths order.
type liveBodies [6][]byte

func (l liveBodies) digests() map[string]string {
	out := make(map[string]string, len(l))
	for i, body := range l {
		sum := sha256.Sum256(body)
		out[livePaths[i]] = hex.EncodeToString(sum[:])
	}
	return out
}

// liveReference feeds the whole feed to a single-process server and
// returns the digests of its final six panels: what every live tier must
// reproduce.
func liveReference(in *inputs) (map[string]string, error) {
	tiny, err := tinyStore()
	if err != nil {
		return nil, err
	}
	h := serve.New(tiny, 0.01)
	var rec recorder
	if err := rec.feedAll(h, in); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var final liveBodies
	for j, p := range livePaths {
		if status := rec.get(h, p); status != http.StatusOK {
			return nil, fmt.Errorf("reference GET %s: status %d", p, status)
		}
		final[j] = bytes.Clone(rec.body.Bytes())
	}
	return final.digests(), nil
}

// ---- in-process HTTP ----

// recorder drives a handler in-process, as cmd/botload's direct mode does,
// so the numbers measure the serve stack and not the loopback. It keeps
// the last response's body; the buffer and header map are reused so the
// harness adds no garbage of its own to alloc_mb_per_pass.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) do(h http.Handler, req *http.Request) int {
	if r.header == nil {
		r.header = make(http.Header)
	}
	clear(r.header)
	r.status = 0
	r.body.Reset()
	h.ServeHTTP(r, req)
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.status
}

func (r *recorder) get(h http.Handler, path string) int {
	return r.do(h, httptest.NewRequest(http.MethodGet, path, nil))
}

// feedAll posts the whole feed, batch by batch, untimed.
func (r *recorder) feedAll(h http.Handler, in *inputs) error {
	for i := range in.Batches {
		if status := r.post(h, in, i); status != http.StatusOK {
			return fmt.Errorf("ingest batch %d: status %d: %s", i, status, bytes.TrimSpace(r.body.Bytes()))
		}
	}
	return nil
}

// post sends feed batch i, read from the feed file for this request only.
func (r *recorder) post(h http.Handler, in *inputs, i int) int {
	return r.do(h, httptest.NewRequest(http.MethodPost, "/api/ingest", in.batch(i)))
}
