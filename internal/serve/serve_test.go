package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/synth"
)

var (
	srvOnce  sync.Once
	srvValue *Server
	srvErr   error
)

// testServer shares one small workload across all handler tests.
func testServer(t *testing.T) *Server {
	t.Helper()
	srvOnce.Do(func() {
		var store *dataset.Store
		store, srvErr = synth.GenerateStore(synth.Config{Seed: 6, Scale: 0.03})
		if srvErr == nil {
			srvValue = New(store, 0.03)
		}
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvValue
}

// get performs a request and decodes the JSON body into out.
func get(t *testing.T, s *Server, path string, wantStatus int, out any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body: %.200s)", path, rec.Code, wantStatus, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s returned invalid JSON: %v", path, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != "ok" {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestSummaryEndpoint(t *testing.T) {
	s := testServer(t)
	var out struct {
		Attacks      int `json:"Attacks"`
		TrafficTypes int `json:"TrafficTypes"`
	}
	get(t, s, "/api/summary", http.StatusOK, &out)
	if out.Attacks == 0 || out.TrafficTypes != 7 {
		t.Errorf("summary = %+v", out)
	}
}

func TestProtocolsEndpoint(t *testing.T) {
	s := testServer(t)
	var out []struct {
		Protocol string `json:"protocol"`
		Count    int    `json:"count"`
	}
	get(t, s, "/api/protocols", http.StatusOK, &out)
	if len(out) == 0 || out[0].Protocol != "HTTP" {
		t.Errorf("protocols = %+v, want HTTP first", out)
	}
}

func TestDailyEndpoint(t *testing.T) {
	s := testServer(t)
	var out struct {
		Average float64 `json:"average"`
		Max     int     `json:"max"`
		Days    []struct {
			Day   string `json:"day"`
			Count int    `json:"count"`
		} `json:"days"`
	}
	get(t, s, "/api/daily", http.StatusOK, &out)
	if out.Max == 0 || len(out.Days) == 0 {
		t.Errorf("daily = %+v", out)
	}
}

func TestIntervalsEndpoint(t *testing.T) {
	s := testServer(t)
	var out struct {
		SimultaneousFrac float64 `json:"SimultaneousFrac"`
		N                int     `json:"N"`
	}
	get(t, s, "/api/intervals", http.StatusOK, &out)
	if out.N == 0 {
		t.Errorf("intervals = %+v", out)
	}
	get(t, s, "/api/intervals?family=dirtjumper", http.StatusOK, &out)
	if out.N == 0 {
		t.Errorf("family intervals = %+v", out)
	}
	get(t, s, "/api/intervals?family=mirai", http.StatusNotFound, nil)
}

func TestFamilyEndpoints(t *testing.T) {
	s := testServer(t)

	var fams []struct {
		Family  string `json:"family"`
		Attacks int    `json:"attacks"`
	}
	get(t, s, "/api/families", http.StatusOK, &fams)
	if len(fams) != 10 {
		t.Errorf("families = %d, want 10", len(fams))
	}

	var disp struct {
		SymmetricFrac float64 `json:"SymmetricFrac"`
		N             int     `json:"N"`
	}
	get(t, s, "/api/family/pandora/dispersion", http.StatusOK, &disp)
	if disp.N == 0 {
		t.Errorf("dispersion = %+v", disp)
	}
	get(t, s, "/api/family/mirai/dispersion", http.StatusNotFound, nil)

	var pred struct {
		Family     string    `json:"family"`
		Similarity float64   `json:"similarity"`
		TruthTail  []float64 `json:"truth_tail"`
	}
	get(t, s, "/api/family/dirtjumper/predict", http.StatusOK, &pred)
	if pred.Family != "dirtjumper" || len(pred.TruthTail) == 0 {
		t.Errorf("predict = %+v", pred)
	}
	if len(pred.TruthTail) > 50 {
		t.Errorf("truth tail = %d values, want trimmed to 50", len(pred.TruthTail))
	}
	get(t, s, "/api/family/dirtjumper/predict?test_points=oops", http.StatusBadRequest, nil)
	// Aldibot has too little dispersion data to fit at this scale.
	get(t, s, "/api/family/aldibot/predict", http.StatusUnprocessableEntity, nil)

	var targets struct {
		Countries int `json:"Countries"`
	}
	get(t, s, "/api/family/darkshell/targets", http.StatusOK, &targets)
	if targets.Countries == 0 {
		t.Errorf("targets = %+v", targets)
	}
}

func TestCollaborationsAndChainsEndpoints(t *testing.T) {
	s := testServer(t)
	var collab struct {
		TotalIntra int `json:"total_intra"`
	}
	get(t, s, "/api/collaborations", http.StatusOK, &collab)
	if collab.TotalIntra == 0 {
		t.Errorf("collaborations = %+v", collab)
	}
	var chains struct {
		Chains        int    `json:"chains"`
		LongestFamily string `json:"longest_family"`
	}
	get(t, s, "/api/chains", http.StatusOK, &chains)
	if chains.Chains == 0 || chains.LongestFamily == "" {
		t.Errorf("chains = %+v", chains)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	s := testServer(t)
	var ids []string
	get(t, s, "/api/experiments", http.StatusOK, &ids)
	if len(ids) < 25 {
		t.Errorf("experiment IDs = %d, want the full catalog", len(ids))
	}
	var res struct {
		ID      string `json:"ID"`
		Text    string `json:"Text"`
		Metrics []struct {
			Name     string  `json:"Name"`
			Measured float64 `json:"Measured"`
		} `json:"Metrics"`
	}
	get(t, s, "/api/experiments/Table%20II", http.StatusOK, &res)
	if res.ID != "Table II" || res.Text == "" || len(res.Metrics) == 0 {
		t.Errorf("experiment result = %+v", res)
	}
	get(t, s, "/api/experiments/Table%20XL", http.StatusNotFound, nil)
}

// liveServer builds an unshared server: ingest tests mutate live state, so
// they must not reuse the sync.Once instance the read-only tests share.
func liveServer(t *testing.T) (*Server, []*dataset.Attack) {
	t.Helper()
	store, err := synth.GenerateStore(synth.Config{Seed: 6, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return New(store, 0.02), store.Attacks()
}

// post performs a POST request and decodes the JSON body into out.
func post(t *testing.T, s *Server, path, body string, wantStatus int, out any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("POST %s = %d, want %d (body: %.200s)", path, rec.Code, wantStatus, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s returned invalid JSON: %v", path, err)
		}
	}
}

func TestIngestAndLiveEndpoints(t *testing.T) {
	s, attacks := liveServer(t)

	// Before any ingest: summary reports zero, analysis sections 422.
	var summary struct {
		Ingested      int `json:"ingested"`
		ActiveAttacks int `json:"active_attacks"`
		PeakActive    int `json:"peak_active"`
	}
	get(t, s, "/api/live/summary", http.StatusOK, &summary)
	if summary.Ingested != 0 {
		t.Fatalf("pre-ingest summary = %+v, want empty", summary)
	}
	for _, path := range []string{
		"/api/live/daily", "/api/live/intervals", "/api/live/durations",
		"/api/live/load", "/api/live/collaborations",
	} {
		get(t, s, path, http.StatusUnprocessableEntity, nil)
	}

	// Ingest the full workload as JSONL in two batches.
	var buf bytes.Buffer
	half := len(attacks) / 2
	if err := dataset.WriteJSONL(&buf, attacks[:half]); err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Ingested int `json:"ingested"`
		Total    int `json:"total"`
	}
	post(t, s, "/api/ingest", buf.String(), http.StatusOK, &resp)
	if resp.Ingested != half || resp.Total != half {
		t.Fatalf("first batch = %+v, want ingested=total=%d", resp, half)
	}
	buf.Reset()
	if err := dataset.WriteJSONL(&buf, attacks[half:]); err != nil {
		t.Fatal(err)
	}
	post(t, s, "/api/ingest", buf.String(), http.StatusOK, &resp)
	if resp.Total != len(attacks) {
		t.Fatalf("second batch total = %d, want %d", resp.Total, len(attacks))
	}

	// Live sections now match the batch endpoints over the same store.
	get(t, s, "/api/live/summary", http.StatusOK, &summary)
	if summary.Ingested != len(attacks) || summary.PeakActive == 0 {
		t.Errorf("post-ingest summary = %+v", summary)
	}
	var daily struct {
		Max  int `json:"max"`
		Days []struct {
			Day   string `json:"day"`
			Count int    `json:"count"`
		} `json:"days"`
	}
	get(t, s, "/api/live/daily", http.StatusOK, &daily)
	if daily.Max == 0 || len(daily.Days) == 0 {
		t.Errorf("live daily = %+v", daily)
	}
	var intervals struct {
		N int `json:"N"`
	}
	get(t, s, "/api/live/intervals", http.StatusOK, &intervals)
	if intervals.N != len(attacks)-1 {
		t.Errorf("live intervals N = %d, want %d", intervals.N, len(attacks)-1)
	}
	var load struct {
		Peak     int    `json:"peak"`
		PeakTime string `json:"peak_time"`
	}
	get(t, s, "/api/live/load", http.StatusOK, &load)
	if load.Peak == 0 || load.PeakTime == "" {
		t.Errorf("live load = %+v", load)
	}
	var collab struct {
		TotalIntra int `json:"total_intra"`
		TotalInter int `json:"total_inter"`
	}
	get(t, s, "/api/live/collaborations", http.StatusOK, &collab)
	if collab.TotalIntra == 0 {
		t.Errorf("live collaborations = %+v", collab)
	}
	get(t, s, "/api/live/durations", http.StatusOK, nil)
}

func TestIngestRejectsBadPayload(t *testing.T) {
	s, attacks := liveServer(t)

	var resp struct {
		Error    string `json:"error"`
		Ingested int    `json:"ingested"`
	}
	post(t, s, "/api/ingest", "{not json}\n", http.StatusUnprocessableEntity, &resp)
	if resp.Error == "" || resp.Ingested != 0 {
		t.Errorf("malformed payload response = %+v", resp)
	}

	// Out-of-order: ingest a later attack, then replay an earlier one.
	var buf bytes.Buffer
	if err := dataset.WriteJSONL(&buf, []*dataset.Attack{attacks[10]}); err != nil {
		t.Fatal(err)
	}
	post(t, s, "/api/ingest", buf.String(), http.StatusOK, nil)
	buf.Reset()
	if err := dataset.WriteJSONL(&buf, []*dataset.Attack{attacks[0]}); err != nil {
		t.Fatal(err)
	}
	post(t, s, "/api/ingest", buf.String(), http.StatusUnprocessableEntity, &resp)
	if resp.Error == "" {
		t.Errorf("out-of-order response = %+v, want error", resp)
	}
}

func TestListenAndServeContextShutdown(t *testing.T) {
	s, _ := liveServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServeContext(ctx, "127.0.0.1:0") }()
	// Give the listener a moment to come up, then trigger shutdown.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down after context cancellation")
	}
}

func TestListenAndServeContextBadAddr(t *testing.T) {
	s, _ := liveServer(t)
	if err := s.ListenAndServeContext(context.Background(), "256.0.0.1:bogus"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/api/summary", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/summary = %d, want 405", rec.Code)
	}
}

func TestIngestStatsEndpoint(t *testing.T) {
	s, attacks := liveServer(t)

	var st struct {
		Requests   int    `json:"requests"`
		Records    int    `json:"records"`
		Rejected   int    `json:"rejected"`
		LastIngest string `json:"last_ingest"`
	}
	get(t, s, "/api/live/ingeststats", http.StatusOK, &st)
	if st.Requests != 0 || st.Records != 0 || st.LastIngest != "" {
		t.Fatalf("pre-ingest stats = %+v, want zeros", st)
	}

	var buf bytes.Buffer
	if err := dataset.WriteJSONL(&buf, attacks[:3]); err != nil {
		t.Fatal(err)
	}
	post(t, s, "/api/ingest", buf.String(), http.StatusOK, nil)
	post(t, s, "/api/ingest", "not json\n", http.StatusUnprocessableEntity, nil)

	get(t, s, "/api/live/ingeststats", http.StatusOK, &st)
	if st.Requests != 2 || st.Records != 3 || st.Rejected != 1 {
		t.Fatalf("post-ingest stats = %+v, want requests=2 records=3 rejected=1", st)
	}
	if _, err := time.Parse(time.RFC3339, st.LastIngest); err != nil {
		t.Fatalf("last_ingest %q not RFC3339: %v", st.LastIngest, err)
	}
}

// TestClosedStoreIs503 pins the serve tier's half of "a closed store is
// an error, not a fault": once a mapped store is closed, every route
// answers 503 with the JSON error shape instead of reading unmapped
// columns.
func TestClosedStoreIs503(t *testing.T) {
	store := reloadedStore(t)
	s := New(store, 0.03)
	get(t, s, "/api/summary", http.StatusOK, nil)
	store.Close()
	for _, path := range []string{"/api/summary", "/api/family/dirtjumper/dispersion", "/api/experiments/Table%20III"} {
		var body struct{ Error string }
		get(t, s, path, http.StatusServiceUnavailable, &body)
		if body.Error != dataset.ErrStoreClosed.Error() {
			t.Errorf("GET %s on a closed store: error %q, want %q", path, body.Error, dataset.ErrStoreClosed)
		}
	}
}

// reloadedStore writes the shared workload to a snapshot file and opens
// it again: a mapped store, with no attack record built.
func reloadedStore(t *testing.T) *dataset.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reloaded.bscs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteSnapshot(f, testServer(t).store); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	store, err := dataset.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestServeKeepsRecordsLazy is the run-time form of "the analysis layer
// never materializes the records": on a snapshot-loaded store, every
// experiment and one GET of every explore route — the §V event lists
// included, which build their members' records one row at a time — leave
// Attacks' records unbuilt.
func TestServeKeepsRecordsLazy(t *testing.T) {
	store := reloadedStore(t)
	defer store.Close()
	s := New(store, 0.03)
	for _, e := range s.workload.All() {
		e.Run() // a failure at this scale is an answer too; only the records matter here
	}
	paths := []string{"/api/summary", "/api/protocols", "/api/daily", "/api/intervals",
		"/api/durations", "/api/families", "/api/collaborations", "/api/chains", "/api/experiments"}
	for _, f := range dataset.ActiveFamilies {
		paths = append(paths, "/api/family/"+string(f)+"/dispersion", "/api/family/"+string(f)+"/predict",
			"/api/family/"+string(f)+"/targets", "/api/intervals?family="+string(f))
	}
	for _, path := range paths {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code >= 500 {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	if store.RecordsMaterialized() {
		t.Fatal("a report pass or an explore route materialized the attack records")
	}
}

// TestWorkloadBuildsEventsOnce pins that the chains are a product of the
// workload: Figure 17 builds them, and Figure 18 and GET /api/chains read
// that one ChainStats instead of detecting again.
func TestWorkloadBuildsEventsOnce(t *testing.T) {
	store, err := synth.GenerateStore(synth.Config{Seed: 6, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	s := New(store, 0.03)
	w := s.workload
	if _, err := w.Figure17(); err != nil {
		t.Fatal(err)
	}
	st := w.Chains()
	if len(st.Chains) == 0 {
		t.Fatal("no multistage chains; the checks below are vacuous")
	}
	if n := testing.AllocsPerRun(10, func() { w.Chains() }); n != 0 {
		t.Errorf("Chains after Figure 17 allocated %v objects, want 0: Figure 17 did not build the workload's chains", n)
	}
	detect := testing.AllocsPerRun(1, func() { core.AnalyzeChains(store) })
	for _, read := range []struct {
		name string
		run  func()
	}{
		{"Figure 18", func() { w.Figure18() }},
		{"GET /api/chains", func() { get(t, s, "/api/chains", http.StatusOK, nil) }},
	} {
		if n := testing.AllocsPerRun(1, read.run); n*2 > detect {
			t.Errorf("%s allocated %v objects, a chain detection %v: it detected again", read.name, n, detect)
		}
	}
	if again := w.Chains(); &again.Chains[0] != &st.Chains[0] || again.Longest != st.Longest {
		t.Error("the workload's ChainStats changed after Figure 18 and GET /api/chains")
	}
}
