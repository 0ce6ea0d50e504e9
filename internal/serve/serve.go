// Package serve exposes botscope analyses over HTTP as JSON — the
// integration surface a monitoring operation would embed in dashboards.
// The batch routes are read-only over a workload loaded once, and answer
// from the products its experiments.Workload builds once; the
// streaming routes (POST /api/ingest, GET /api/live/*) feed and query a
// bounded-memory online analyzer for live telemetry.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/experiments"
	"botscope/internal/stream"
	"botscope/internal/timeseries"
)

// shutdownGrace bounds how long in-flight requests may run after the serve
// context is cancelled.
const shutdownGrace = 10 * time.Second

// Server serves analysis endpoints over one workload plus a live ingest
// stream.
type Server struct {
	store    *dataset.Store
	workload *experiments.Workload
	live     *stream.Analyzer
	mux      *http.ServeMux
	h        http.Handler
}

// New builds a server for the workload; scale feeds the experiment layer's
// count expectations (1.0 = paper size). The live analyzer starts empty
// and fills through POST /api/ingest.
func New(store *dataset.Store, scale float64) *Server {
	s := &Server{
		store:    store,
		workload: experiments.FromStore(store, scale),
		live:     stream.New(),
		mux:      http.NewServeMux(),
	}
	s.routes()
	s.h = jsonErrors(http.HandlerFunc(s.serve))
	return s
}

// serve runs every route under a store hold, so Close waits for the
// handlers in flight, and answers 503 once Close has begun. One hold per
// request; the loops behind it stay branch-free.
func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	release, ok := s.store.Hold()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, dataset.ErrStoreClosed)
		return
	}
	defer release()
	s.mux.ServeHTTP(w, r)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// LiveSnapshot implements LiveSource over the in-process analyzer: a
// single process is never degraded.
func (s *Server) LiveSnapshot(context.Context) (stream.Snapshot, []int, error) {
	return s.live.Snapshot(), nil, nil
}

// LiveIngest implements LiveSource: it streams JSONL records from body
// into the live analyzer. dataset.DecodeJSONLKeys validates each record
// whole and hands over its key alone, which IngestAt at seq 0 folds as
// Ingest would; no source list is allocated. Records preceding a
// malformed, invalid or out-of-order record stay applied.
func (s *Server) LiveIngest(_ context.Context, body io.Reader) (int, int, error) {
	ingested := 0
	err := dataset.DecodeJSONLKeys(body, func(a *dataset.Attack) error {
		if err := s.live.IngestAt(a, 0); err != nil {
			return err
		}
		ingested++
		return nil
	})
	return ingested, s.live.Ingested(), err
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /api/summary", s.handleSummary)
	s.mux.HandleFunc("GET /api/protocols", s.handleProtocols)
	s.mux.HandleFunc("GET /api/daily", s.handleDaily)
	s.mux.HandleFunc("GET /api/intervals", s.handleIntervals)
	s.mux.HandleFunc("GET /api/durations", s.handleDurations)
	s.mux.HandleFunc("GET /api/families", s.handleFamilies)
	s.mux.HandleFunc("GET /api/family/{name}/dispersion", s.handleDispersion)
	s.mux.HandleFunc("GET /api/family/{name}/predict", s.handlePredict)
	s.mux.HandleFunc("GET /api/family/{name}/targets", s.handleTargets)
	s.mux.HandleFunc("GET /api/collaborations", s.handleCollaborations)
	s.mux.HandleFunc("GET /api/chains", s.handleChains)
	s.mux.HandleFunc("GET /api/experiments", s.handleExperimentList)
	s.mux.HandleFunc("GET /api/experiments/{id}", s.handleExperiment)

	// The live plane is the LiveServer's route table over this server as
	// its LiveSource — the one the cluster frontend is served through —
	// mounted whole, under this server's jsonErrors.
	live := NewLiveServer(s).mux
	s.mux.Handle("/api/ingest", live)
	s.mux.Handle("/api/live/", live)
	s.mux.Handle("/healthz", live)
}

// writeJSON encodes v with a 200 status, or, when v does not encode (a
// NaN, say), answers 500 with the error instead of an empty 200.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
}

// writeError encodes a JSON error payload.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *Server) handleSummary(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.store.Summary())
}

func (s *Server) handleProtocols(w http.ResponseWriter, _ *http.Request) {
	rows := s.workload.Protocols()
	type row struct {
		Protocol string `json:"protocol"`
		Count    int    `json:"count"`
	}
	out := make([]row, rows.Len())
	for i, r := range rows.All() {
		out[i] = row{Protocol: r.Category.String(), Count: r.Count}
	}
	writeJSON(w, out)
}

func (s *Server) handleDaily(w http.ResponseWriter, _ *http.Request) {
	st, err := s.workload.Daily()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeDaily(w, st)
}

func (s *Server) handleIntervals(w http.ResponseWriter, r *http.Request) {
	var (
		st  core.IntervalStats
		err error
	)
	if fam := r.URL.Query().Get("family"); fam != "" {
		_, st, err = s.workload.FamilyIntervals(dataset.Family(fam))
	} else {
		_, st, err = s.workload.AllIntervals()
	}
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleDurations(w http.ResponseWriter, _ *http.Request) {
	_, st, err := s.workload.Durations()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleFamilies(w http.ResponseWriter, _ *http.Request) {
	type famRow struct {
		Family  string `json:"family"`
		Attacks int    `json:"attacks"`
	}
	var out []famRow
	for _, fc := range s.store.FamilyCounts().All() {
		out = append(out, famRow{Family: string(fc.Family), Attacks: fc.Attacks})
	}
	writeJSON(w, out)
}

// family resolves the path's family and 404s when it launched no attacks.
func (s *Server) family(w http.ResponseWriter, r *http.Request) (dataset.Family, bool) {
	f := dataset.Family(r.PathValue("name"))
	if s.store.RowsByFamily(f).Len() == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("family %q has no attacks", f))
		return "", false
	}
	return f, true
}

func (s *Server) handleDispersion(w http.ResponseWriter, r *http.Request) {
	f, ok := s.family(w, r)
	if !ok {
		return
	}
	prof, err := s.workload.Disp().Profile(f)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, prof)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	f, ok := s.family(w, r)
	if !ok {
		return
	}
	testPoints := 0
	if v := r.URL.Query().Get("test_points"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid test_points %q", v))
			return
		}
		testPoints = n
	}
	res, err := s.workload.Disp().Predict(f, core.PredictConfig{
		Order:      timeseries.Order{P: 1},
		TestPoints: testPoints,
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	// Truth/prediction series can be long; expose the scores plus tails.
	const tail = 50
	trim := func(xs []float64) []float64 {
		if len(xs) > tail {
			return xs[len(xs)-tail:]
		}
		return xs
	}
	writeJSON(w, struct {
		Family     string    `json:"family"`
		Order      string    `json:"order"`
		Similarity float64   `json:"similarity"`
		MeanPred   float64   `json:"mean_pred"`
		MeanTruth  float64   `json:"mean_truth"`
		TruthTail  []float64 `json:"truth_tail"`
		PredTail   []float64 `json:"pred_tail"`
	}{
		Family:     string(res.Family),
		Order:      res.Order.String(),
		Similarity: res.Similarity,
		MeanPred:   res.MeanPred,
		MeanTruth:  res.MeanTruth,
		TruthTail:  trim(res.Truth),
		PredTail:   trim(res.Predicted),
	})
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	f, ok := s.family(w, r)
	if !ok {
		return
	}
	writeJSON(w, s.workload.TargetCountries(f).Head(10))
}

func (s *Server) handleCollaborations(w http.ResponseWriter, _ *http.Request) {
	st := s.workload.CollabStats()
	writeJSON(w, struct {
		TotalIntra  int                    `json:"total_intra"`
		TotalInter  int                    `json:"total_inter"`
		MeanBotnets float64                `json:"mean_botnets"`
		Intra       map[dataset.Family]int `json:"intra"`
		Inter       map[dataset.Family]int `json:"inter"`
		Pairs       map[string]int         `json:"pairs"`
	}{
		TotalIntra:  st.TotalIntra,
		TotalInter:  st.TotalInter,
		MeanBotnets: st.MeanBotnets,
		Intra:       st.Intra,
		Inter:       st.Inter,
		Pairs:       st.PairCounts,
	})
}

func (s *Server) handleChains(w http.ResponseWriter, _ *http.Request) {
	st := s.workload.Chains()
	out := struct {
		Chains        int     `json:"chains"`
		FracWithin10s float64 `json:"frac_within_10s"`
		FracWithin30s float64 `json:"frac_within_30s"`
		LongestLength int     `json:"longest_length"`
		LongestFamily string  `json:"longest_family"`
	}{
		Chains:        len(st.Chains),
		FracWithin10s: st.FracWithin10s,
		FracWithin30s: st.FracWithin30s,
	}
	if st.Longest != nil {
		out.LongestLength = st.Longest.Length()
		out.LongestFamily = string(st.Longest.Family)
	}
	writeJSON(w, out)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	var ids []string
	for _, e := range s.workload.All() {
		ids = append(ids, e.ID)
	}
	writeJSON(w, ids)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, e := range s.workload.All() {
		if e.ID != id {
			continue
		}
		res, err := e.Run()
		switch {
		case errors.Is(err, dataset.ErrStoreClosed):
			writeError(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, res)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", id))
}

// ListenAndServeContext runs the server until the listener fails or ctx is
// cancelled. On cancellation it shuts down gracefully, letting in-flight
// requests finish within shutdownGrace, and returns nil.
func (s *Server) ListenAndServeContext(ctx context.Context, addr string) error {
	return listenAndServe(ctx, addr, s)
}
