package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"botscope/internal/cluster"
	"botscope/internal/dataset"
	"botscope/internal/serve"
	"botscope/internal/synth"
)

// liveRoutes are the live query endpoints whose bodies must be
// byte-identical across deployment shapes. /api/live/ingeststats is
// excluded: it reports wall-clock feeder telemetry, not event-time
// analytics.
var liveRoutes = []string{
	"/api/live/summary",
	"/api/live/daily",
	"/api/live/intervals",
	"/api/live/durations",
	"/api/live/load",
	"/api/live/collaborations",
}

var (
	feedOnce    sync.Once
	feedStore   *dataset.Store
	feedBatches [][]byte // the replayed feed, split into ordered JSONL batches
	feedErr     error
)

// replayFeed shares one seeded workload, encoded as two ordered JSONL
// batches, across the determinism tests.
func replayFeed(t *testing.T) (*dataset.Store, [][]byte) {
	t.Helper()
	feedOnce.Do(func() {
		feedStore, feedErr = synth.GenerateStore(synth.Config{Seed: 11, Scale: 0.04})
		if feedErr != nil {
			return
		}
		attacks := feedStore.Attacks()
		half := len(attacks) / 2
		for _, part := range [][]*dataset.Attack{attacks[:half], attacks[half:]} {
			var buf bytes.Buffer
			if feedErr = dataset.WriteJSONL(&buf, part); feedErr != nil {
				return
			}
			feedBatches = append(feedBatches, buf.Bytes())
		}
	})
	if feedErr != nil {
		t.Fatal(feedErr)
	}
	return feedStore, feedBatches
}

// getBody performs a GET against h and returns status, headers, and body.
func getBody(t *testing.T, h http.Handler, path string) (int, http.Header, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Result().Header, rec.Body.String()
}

// postIngest replays one JSONL batch and returns the decoded response.
func postIngest(t *testing.T, h http.Handler, batch []byte, wantStatus int) (ingested, total int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/ingest", bytes.NewReader(batch))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("POST /api/ingest = %d, want %d (body: %.200s)", rec.Code, wantStatus, rec.Body.String())
	}
	var resp struct {
		Ingested int `json:"ingested"`
		Total    int `json:"total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	return resp.Ingested, resp.Total
}

// startCluster boots an n-shard loopback cluster and its HTTP face.
func startCluster(t *testing.T, n int) (*cluster.Local, *serve.LiveServer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	local, err := cluster.StartLocal(ctx, n, 0, 0, 0)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close(); cancel() })
	return local, serve.NewLiveServer(local.Frontend, serve.WithClusterAdmin(local.Frontend))
}

// TestClusterDeterministicAcrossShardCounts is the central property of the
// sharded tier: replaying the same ordered feed through 1, 2, 4, and 7
// shards yields responses byte-identical to a single-process server — at
// every batch boundary, not just at the end.
func TestClusterDeterministicAcrossShardCounts(t *testing.T) {
	store, batches := replayFeed(t)

	// Baseline: the single-process server, checkpointed after each batch.
	single := serve.New(store, 0.04)
	checkpoints := make([]map[string]string, len(batches))
	for i, batch := range batches {
		postIngest(t, single, batch, http.StatusOK)
		checkpoints[i] = make(map[string]string)
		for _, route := range liveRoutes {
			code, _, body := getBody(t, single, route)
			if code != http.StatusOK {
				t.Fatalf("single-process GET %s = %d (%.200s)", route, code, body)
			}
			checkpoints[i][route] = body
		}
	}

	total := 0
	for _, batch := range batches {
		total += bytes.Count(batch, []byte("\n"))
	}

	for _, n := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			_, h := startCluster(t, n)
			got := 0
			for i, batch := range batches {
				ingested, running := postIngest(t, h, batch, http.StatusOK)
				got += ingested
				if running != got {
					t.Fatalf("batch %d: running total = %d, want %d", i, running, got)
				}
				for _, route := range liveRoutes {
					code, hdr, body := getBody(t, h, route)
					if code != http.StatusOK {
						t.Fatalf("GET %s = %d (%.200s)", route, code, body)
					}
					if hdr.Get(serve.HeaderDegraded) != "" {
						t.Fatalf("GET %s unexpectedly degraded: %s", route, hdr.Get(serve.HeaderMissingShards))
					}
					if body != checkpoints[i][route] {
						t.Errorf("GET %s diverges from single-process after batch %d:\n cluster: %.400s\n single:  %.400s",
							route, i, body, checkpoints[i][route])
					}
				}
			}
			if got != total {
				t.Fatalf("ingested %d records, want %d", got, total)
			}
		})
	}
}

// TestClusterDeterministicEmptyFeed checks the pre-ingest shapes match the
// single-process server exactly, including the guarded 422s.
func TestClusterDeterministicEmptyFeed(t *testing.T) {
	store, _ := replayFeed(t)
	single := serve.New(store, 0.04)
	_, h := startCluster(t, 3)

	for _, route := range liveRoutes {
		wantCode, _, wantBody := getBody(t, single, route)
		code, _, body := getBody(t, h, route)
		if code != wantCode || body != wantBody {
			t.Errorf("empty GET %s = %d %q, single-process %d %q", route, code, body, wantCode, wantBody)
		}
	}
}

// TestClusterLeaveRejoinUnderLoad drives the membership lifecycle mid-feed:
// the cluster must keep serving through a graceful leave, report the
// rejoined shard's refilling partition as degraded, and keep exact ingest
// totals throughout.
func TestClusterLeaveRejoinUnderLoad(t *testing.T) {
	_, batches := replayFeed(t)
	local, h := startCluster(t, 4)

	ingested, _ := postIngest(t, h, batches[0], http.StatusOK)

	// Graceful leave via the admin route.
	req := httptest.NewRequest(http.MethodPost, "/api/cluster/shards/2/leave", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("leave = %d (%.200s)", rec.Code, rec.Body.String())
	}

	// The survivors keep serving queries and ingest.
	code, _, body := getBody(t, h, "/api/live/summary")
	if code != http.StatusOK {
		t.Fatalf("summary during leave = %d (%.200s)", code, body)
	}
	more, running := postIngest(t, h, batches[1], http.StatusOK)
	if running != ingested+more {
		t.Fatalf("total after leave = %d, want %d", running, ingested+more)
	}

	var st cluster.Status
	code, _, body = getBody(t, h, "/api/cluster/status")
	if code != http.StatusOK {
		t.Fatalf("cluster status = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.RingSize != 3 {
		t.Fatalf("ring size after leave = %d, want 3", st.RingSize)
	}

	// Rejoin: the shard comes back clean and refills from here on, so
	// queries flag its partition as degraded (stale) data.
	req = httptest.NewRequest(http.MethodPost, "/api/cluster/shards/2/join", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("join = %d (%.200s)", rec.Code, rec.Body.String())
	}
	if got := local.Frontend.ClusterStatus().(cluster.Status); got.RingSize != 4 {
		t.Fatalf("ring size after join = %d, want 4", got.RingSize)
	}

	code, hdr, body := getBody(t, h, "/api/live/summary")
	if code != http.StatusOK {
		t.Fatalf("summary after rejoin = %d (%.200s)", code, body)
	}
	if hdr.Get(serve.HeaderDegraded) != "true" || !strings.Contains(hdr.Get(serve.HeaderMissingShards), "2") {
		t.Errorf("rejoined shard not flagged: degraded=%q missing=%q",
			hdr.Get(serve.HeaderDegraded), hdr.Get(serve.HeaderMissingShards))
	}

	// Leaving a shard that is not connected is a clean 404.
	req = httptest.NewRequest(http.MethodPost, "/api/cluster/shards/9/leave", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("leave unknown shard = %d, want 404", rec.Code)
	}
}

// TestFrontendIngestBusy pins the backpressure contract: a second ingest
// arriving while one is in flight is refused whole with a 503-shaped
// error, applying nothing.
func TestFrontendIngestBusy(t *testing.T) {
	local, h := startCluster(t, 1)

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		_, _, err := local.Frontend.LiveIngest(context.Background(), pr)
		done <- err
	}()

	// The pipe blocks the first ingest inside the critical section; poll
	// until the second caller observes it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, err := local.Frontend.LiveIngest(context.Background(), strings.NewReader(""))
		if errors.Is(err, cluster.ErrIngestBusy) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed ErrIngestBusy")
		}
		time.Sleep(time.Millisecond)
	}

	// The HTTP face maps it to 503 + Retry-After with the shared error
	// shape, without applying any records.
	req := httptest.NewRequest(http.MethodPost, "/api/ingest", strings.NewReader(""))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("busy ingest = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("busy ingest missing Retry-After")
	}
	var resp struct {
		Error    string `json:"error"`
		Ingested int    `json:"ingested"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Fatalf("busy body = %q (%v)", rec.Body.String(), err)
	}
	if resp.Ingested != 0 {
		t.Errorf("busy ingest applied %d records, want 0", resp.Ingested)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("first ingest failed: %v", err)
	}
}

// TestFrontendShardLossDegrades kills a shard out from under the frontend
// and checks queries degrade to partial results instead of failing.
func TestFrontendShardLossDegrades(t *testing.T) {
	_, batches := replayFeed(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Boot two shards with independent lifetimes so one can die alone.
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	addrs := make(map[int]string)
	var victimDone <-chan error
	for id := 0; id < 2; id++ {
		sctx := ctx
		if id == 1 {
			sctx = victimCtx
		}
		sh := cluster.NewShard(id, 0)
		addr, done, err := cluster.ListenLocal(sctx, sh)
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = addr
		if id == 1 {
			victimDone = done
		}
	}
	f := cluster.NewFrontend(500*time.Millisecond, time.Second)
	if err := f.Connect(ctx, addrs); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := serve.NewLiveServer(f)

	postIngest(t, h, batches[0], http.StatusOK)
	killVictim()
	// Wait until the victim has closed its connections: a shard that is
	// still dying can answer the first query, and the frontend rightly
	// caches that undegraded merge for the generation.
	if err := <-victimDone; err != nil {
		t.Fatalf("victim shard: %v", err)
	}

	// The dead shard times out or errors; the next query must still answer
	// from the survivor and flag the loss.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, hdr, body := getBody(t, h, "/api/live/summary")
		if code == http.StatusOK && hdr.Get(serve.HeaderDegraded) == "true" {
			if !strings.Contains(hdr.Get(serve.HeaderMissingShards), "1") {
				t.Fatalf("missing-shards = %q, want it to include 1", hdr.Get(serve.HeaderMissingShards))
			}
			break
		}
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Fatalf("summary after shard loss = %d (%.200s)", code, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("shard loss never surfaced as degraded")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Ingest keeps working against the survivor.
	postIngest(t, h, batches[1], http.StatusOK)
}

// TestLiveServerRateLimit checks per-client admission: requests beyond the
// burst get 429 with a Retry-After hint and the shared JSON error shape,
// and /healthz stays exempt.
func TestLiveServerRateLimit(t *testing.T) {
	local, _ := startCluster(t, 1)
	h := serve.NewLiveServer(local.Frontend, serve.WithRateLimiter(cluster.NewRateLimiter(0.001, 2)))

	limited := false
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodGet, "/api/live/summary", nil)
		req.RemoteAddr = "10.1.2.3:4444"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			limited = true
			if rec.Header().Get("Retry-After") == "" {
				t.Error("429 missing Retry-After")
			}
			var resp struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
				t.Fatalf("429 body = %q (%v)", rec.Body.String(), err)
			}
		default:
			t.Fatalf("request %d = %d", i, rec.Code)
		}
	}
	if !limited {
		t.Fatal("burst of 3 over burst=2 was never limited")
	}

	// A different client has its own bucket.
	req := httptest.NewRequest(http.MethodGet, "/api/live/summary", nil)
	req.RemoteAddr = "10.9.9.9:1"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("fresh client = %d, want 200", rec.Code)
	}

	// Health stays reachable for probes regardless of the limiter.
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		req.RemoteAddr = "10.1.2.3:4444"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz under limit = %d", rec.Code)
		}
	}
}
