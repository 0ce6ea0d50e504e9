package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"botscope/internal/core"
	"botscope/internal/stream"
)

// LiveSource is the live analytics plane behind the /api/live/* and
// /api/ingest routes. The single-process server backs it with one
// stream.Analyzer; a cluster frontend backs it with a deterministic merge
// over shard partials (internal/cluster implements this interface
// structurally — the signatures use only stdlib and stream types, so
// neither package imports the other).
//
// LiveSnapshot returns the current view plus the ids of shards whose data
// is missing or stale in it (always empty for a single process); the
// handlers surface those as X-Botscope-* degradation headers, never in
// the body, so response bodies stay byte-identical across deployments.
// LiveIngest applies a JSONL batch and reports (records applied by this
// call, running total).
type LiveSource interface {
	LiveSnapshot(ctx context.Context) (stream.Snapshot, []int, error)
	LiveIngest(ctx context.Context, body io.Reader) (ingested, total int, err error)
}

// ClusterAdmin is the optional management surface a clustered live source
// exposes: routing status plus graceful shard leave/join. Leave and join
// receive the admin request's context so its deadline and disconnect
// propagate into the shard RPCs instead of being dropped at this boundary.
type ClusterAdmin interface {
	ClusterStatus() any
	ShardLeave(ctx context.Context, id int) error
	ShardJoin(ctx context.Context, id int) error
}

// AdminVerb names one cluster shard-management action. The set is closed:
// internal/gate's wireframe rule keeps every switch over an AdminVerb
// exhaustive, so a new verb cannot reach the mux without every dispatch
// point handling it.
//
//botvet:wire
type AdminVerb string

// Cluster management verbs, as they appear in the route path.
const (
	AdminLeave AdminVerb = "leave"
	AdminJoin  AdminVerb = "join"
)

// RateLimiter admits or refuses a request for a client key, returning a
// retry hint when refused. internal/cluster's token bucket implements it.
type RateLimiter interface {
	Allow(key string) (bool, time.Duration)
}

// Degradation headers: partial results are flagged out-of-band so bodies
// remain byte-identical to a fully healthy (or single-process) server.
const (
	// HeaderDegraded is "true" when any shard's data is missing or stale.
	HeaderDegraded = "X-Botscope-Degraded"
	// HeaderMissingShards lists the affected shard ids, comma-separated.
	HeaderMissingShards = "X-Botscope-Missing-Shards"
)

// errNoIngest is the empty-feed error.
var errNoIngest = errors.New("serve: no attacks ingested yet")

// maxIngestBody bounds one POST /api/ingest body: sixteen records of the
// largest size the JSONL decoder buffers (dataset's jsonlMaxRecord, 4 MiB).
// A longer body is cut off there and answered 413; the records before the
// cut stay applied, like those before a malformed one.
const maxIngestBody = 64 << 20

// LiveServer serves the live plane only — ingest, live queries, health,
// and (when the source supports it) cluster administration. It is the
// HTTP face of a cluster frontend, and Server mounts one over itself for
// the single-process live routes: all analytics state lives behind the
// LiveSource.
type LiveServer struct {
	src   LiveSource
	admin ClusterAdmin
	limit RateLimiter
	mux   *http.ServeMux
	h     http.Handler

	statsMu        sync.Mutex
	ingestRequests int       // guarded by statsMu
	ingestRecords  int       // guarded by statsMu
	ingestRejected int       // guarded by statsMu
	lastIngest     time.Time // guarded by statsMu
}

// LiveOption configures a LiveServer.
type LiveOption func(*LiveServer)

// WithClusterAdmin mounts the /api/cluster/* management routes.
func WithClusterAdmin(a ClusterAdmin) LiveOption {
	return func(s *LiveServer) { s.admin = a }
}

// WithRateLimiter enforces a per-client admission limit on every /api/*
// route; refused requests get 429 with a Retry-After hint.
func WithRateLimiter(l RateLimiter) LiveOption {
	return func(s *LiveServer) { s.limit = l }
}

// NewLiveServer builds the live-plane HTTP server over src.
func NewLiveServer(src LiveSource, opts ...LiveOption) *LiveServer {
	s := &LiveServer{src: src, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	s.routes()
	s.h = jsonErrors(http.HandlerFunc(s.limited))
	return s
}

// ServeHTTP implements http.Handler.
func (s *LiveServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// ListenAndServeContext runs the server until ctx is cancelled (graceful)
// or the listener fails.
func (s *LiveServer) ListenAndServeContext(ctx context.Context, addr string) error {
	return listenAndServe(ctx, addr, s)
}

func (s *LiveServer) routes() {
	s.mux.HandleFunc("POST /api/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /api/live/summary", s.handleLive(writeLiveSummary))
	s.mux.HandleFunc("GET /api/live/daily", s.handleLiveGuarded(writeLiveDaily))
	s.mux.HandleFunc("GET /api/live/intervals", s.handleLiveGuarded(writeLiveIntervals))
	s.mux.HandleFunc("GET /api/live/durations", s.handleLiveGuarded(writeLiveDurations))
	s.mux.HandleFunc("GET /api/live/load", s.handleLiveGuarded(writeLiveLoad))
	s.mux.HandleFunc("GET /api/live/collaborations", s.handleLiveGuarded(writeLiveCollaborations))
	s.mux.HandleFunc("GET /api/live/ingeststats", s.handleIngestStats)
	s.mux.HandleFunc("GET /healthz", handleHealthz)
	if s.admin != nil {
		s.mux.HandleFunc("GET /api/cluster/status", s.handleClusterStatus)
		s.mux.HandleFunc("POST /api/cluster/shards/{id}/leave", s.handleShardChange(AdminLeave))
		s.mux.HandleFunc("POST /api/cluster/shards/{id}/join", s.handleShardChange(AdminJoin))
	}
}

// limited applies the per-client admission check in front of the mux.
func (s *LiveServer) limited(w http.ResponseWriter, r *http.Request) {
	if s.limit != nil && strings.HasPrefix(r.URL.Path, "/api/") {
		key := r.RemoteAddr
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			key = host
		}
		if ok, retry := s.limit.Allow(key); !ok {
			w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())+1))
			writeError(w, http.StatusTooManyRequests, fmt.Errorf("serve: rate limit exceeded"))
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// snapshot fetches the merged view, writes degradation headers, and maps
// source failures; ok is false when a response was already written.
func (s *LiveServer) snapshot(w http.ResponseWriter, r *http.Request) (stream.Snapshot, bool) {
	snap, degraded, err := s.src.LiveSnapshot(r.Context())
	if err != nil {
		writeSourceError(w, err, http.StatusServiceUnavailable)
		return snap, false
	}
	setDegraded(w, degraded)
	return snap, true
}

// setDegraded flags partial results out-of-band.
func setDegraded(w http.ResponseWriter, degraded []int) {
	if len(degraded) == 0 {
		return
	}
	ids := make([]string, len(degraded))
	for i, id := range degraded {
		ids[i] = strconv.Itoa(id)
	}
	w.Header().Set(HeaderDegraded, "true")
	w.Header().Set(HeaderMissingShards, strings.Join(ids, ","))
}

// handleLive serves an endpoint that renders even an empty feed.
func (s *LiveServer) handleLive(write func(http.ResponseWriter, stream.Snapshot)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap, ok := s.snapshot(w, r)
		if !ok {
			return
		}
		write(w, snap)
	}
}

// handleLiveGuarded serves an endpoint that 422s until the first ingest
// (mirroring the batch handlers' empty-workload behaviour).
func (s *LiveServer) handleLiveGuarded(write func(http.ResponseWriter, stream.Snapshot)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap, ok := s.snapshot(w, r)
		if !ok {
			return
		}
		if snap.Ingested == 0 {
			writeError(w, http.StatusUnprocessableEntity, errNoIngest)
			return
		}
		write(w, snap)
	}
}

func (s *LiveServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	ingested, total, err := s.src.LiveIngest(r.Context(), http.MaxBytesReader(w, r.Body, maxIngestBody))
	s.recordIngest(ingested, err != nil)
	if err != nil {
		writeIngestError(w, err, ingested, total)
		return
	}
	writeJSON(w, map[string]any{"ingested": ingested, "total": total})
}

func (s *LiveServer) recordIngest(records int, rejected bool) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.ingestRequests++
	s.ingestRecords += records
	if rejected {
		s.ingestRejected++
	}
	s.lastIngest = time.Now()
}

// handleIngestStats reports the feed-driving telemetry: requests served,
// records accepted, rejected requests, and the wall-clock time of the last
// ingest call (omitted until the first one).
func (s *LiveServer) handleIngestStats(w http.ResponseWriter, _ *http.Request) {
	var out struct {
		Requests   int    `json:"requests"`
		Records    int    `json:"records"`
		Rejected   int    `json:"rejected"`
		LastIngest string `json:"last_ingest,omitempty"`
	}
	s.statsMu.Lock()
	out.Requests, out.Records, out.Rejected = s.ingestRequests, s.ingestRecords, s.ingestRejected
	last := s.lastIngest
	s.statsMu.Unlock()
	if !last.IsZero() {
		out.LastIngest = last.UTC().Format(time.RFC3339)
	}
	writeJSON(w, out)
}

func (s *LiveServer) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.admin.ClusterStatus())
}

// handleShardChange adapts a management verb into a handler, threading the
// request's context into the shard RPC.
func (s *LiveServer) handleShardChange(verb AdminVerb) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid shard id %q", r.PathValue("id")))
			return
		}
		switch verb {
		case AdminLeave:
			err = s.admin.ShardLeave(r.Context(), id)
		case AdminJoin:
			err = s.admin.ShardJoin(r.Context(), id)
		}
		if err != nil {
			writeSourceError(w, err, http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, map[string]any{"ok": true, "shard": id})
	}
}

// writeSourceError maps a live-source failure onto HTTP: errors that
// carry their own status (the cluster's busy/unavailable signals) keep
// it, everything else gets fallback.
func writeSourceError(w http.ResponseWriter, err error, fallback int) {
	status := fallback
	var sc interface{ HTTPStatus() int }
	if errors.As(err, &sc) {
		status = sc.HTTPStatus()
	}
	var ra interface{ RetryAfter() int }
	if errors.As(err, &ra) && ra.RetryAfter() > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ra.RetryAfter()))
	}
	writeError(w, status, err)
}

// writeIngestError emits the ingest failure shape shared by every
// deployment: the error plus how much of the batch was applied. Errors
// carrying their own HTTP status (backpressure → 503) keep it; a body past
// maxIngestBody reports 413, malformed or out-of-order input 422.
func writeIngestError(w http.ResponseWriter, err error, ingested, total int) {
	status := http.StatusUnprocessableEntity
	var sc interface{ HTTPStatus() int }
	var tooLarge *http.MaxBytesError
	if errors.As(err, &sc) {
		status = sc.HTTPStatus()
	} else if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	var ra interface{ RetryAfter() int }
	if errors.As(err, &ra) && ra.RetryAfter() > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ra.RetryAfter()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":    err.Error(),
		"ingested": ingested,
		"total":    total,
	})
}

// handleHealthz is the liveness probe.
func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok"))
}

// The writeLive* functions format one snapshot for one route, whatever
// LiveSource it came from.

func writeLiveSummary(w http.ResponseWriter, snap stream.Snapshot) {
	type protoRow struct {
		Protocol string `json:"protocol"`
		Count    int    `json:"count"`
	}
	out := struct {
		Ingested      int        `json:"ingested"`
		FirstStart    string     `json:"first_start,omitempty"`
		LastStart     string     `json:"last_start,omitempty"`
		ActiveAttacks int        `json:"active_attacks"`
		PeakActive    int        `json:"peak_active"`
		Protocols     []protoRow `json:"protocols"`
	}{Ingested: snap.Ingested, ActiveAttacks: snap.ActiveAttacks, PeakActive: snap.Load.Peak}
	if snap.Ingested > 0 {
		out.FirstStart = snap.FirstStart.UTC().Format(time.RFC3339)
		out.LastStart = snap.LastStart.UTC().Format(time.RFC3339)
	}
	for _, p := range snap.Protocols {
		out.Protocols = append(out.Protocols, protoRow{Protocol: p.Category.String(), Count: p.Count})
	}
	writeJSON(w, out)
}

func writeLiveDaily(w http.ResponseWriter, snap stream.Snapshot) { writeDaily(w, snap.Daily) }

// writeDaily is the Fig 2 body of /api/daily and /api/live/daily.
func writeDaily(w http.ResponseWriter, st core.DailyStats) {
	type day struct {
		Day   string `json:"day"`
		Count int    `json:"count"`
	}
	out := struct {
		Average float64 `json:"average"`
		Max     int     `json:"max"`
		MaxDay  string  `json:"max_day"`
		Days    []day   `json:"days"`
	}{Average: st.Average, Max: st.Max, MaxDay: st.MaxDay.Format("2006-01-02")}
	for _, d := range st.Days {
		out.Days = append(out.Days, day{Day: d.Day.Format("2006-01-02"), Count: d.Count})
	}
	writeJSON(w, out)
}

func writeLiveIntervals(w http.ResponseWriter, snap stream.Snapshot) {
	writeJSON(w, snap.Intervals)
}

func writeLiveDurations(w http.ResponseWriter, snap stream.Snapshot) {
	writeJSON(w, snap.Durations)
}

func writeLiveLoad(w http.ResponseWriter, snap stream.Snapshot) {
	writeJSON(w, struct {
		Active           int     `json:"active"`
		Peak             int     `json:"peak"`
		PeakTime         string  `json:"peak_time"`
		TimeWeightedMean float64 `json:"time_weighted_mean"`
	}{
		Active:           snap.ActiveAttacks,
		Peak:             snap.Load.Peak,
		PeakTime:         snap.Load.PeakTime.UTC().Format(time.RFC3339),
		TimeWeightedMean: snap.Load.TimeWeightedMean,
	})
}

func writeLiveCollaborations(w http.ResponseWriter, snap stream.Snapshot) {
	writeJSON(w, snap.Collaborations)
}

// jsonErrors wraps a handler so every error response leaves as JSON: any
// status >= 400 written without an application/json content type (the
// mux's built-in 404/405 text, for instance) is buffered and re-emitted
// as a structured {"error": ...} body.
func jsonErrors(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		jw := &jsonErrorWriter{rw: w}
		h.ServeHTTP(jw, r)
		jw.finish()
	})
}

type jsonErrorWriter struct {
	rw          http.ResponseWriter
	wroteHeader bool
	buffering   bool
	status      int
	buf         bytes.Buffer
}

func (w *jsonErrorWriter) Header() http.Header { return w.rw.Header() }

func (w *jsonErrorWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	if code >= 400 && !strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		w.buffering = true
		w.status = code
		return
	}
	w.rw.WriteHeader(code)
}

func (w *jsonErrorWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.buffering {
		return w.buf.Write(b)
	}
	return w.rw.Write(b)
}

// finish rewrites a buffered plain error as the structured JSON shape.
func (w *jsonErrorWriter) finish() {
	if !w.buffering {
		return
	}
	msg := strings.TrimSpace(w.buf.String())
	if msg == "" {
		msg = http.StatusText(w.status)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Del("Content-Length")
	w.rw.WriteHeader(w.status)
	_ = json.NewEncoder(w.rw).Encode(map[string]string{"error": msg})
}

// listenAndServe runs handler h on addr with the package's timeouts until
// ctx cancels (graceful shutdown within shutdownGrace) or the listener
// fails.
func listenAndServe(ctx context.Context, addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// The shutdown deadline must outlive ctx — ctx's cancellation is what
	// triggered the shutdown — so detach explicitly rather than minting a
	// fresh background context.
	shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	<-errc // drain the http.ErrServerClosed from Serve
	return nil
}
