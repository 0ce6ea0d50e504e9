package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// stubAdmin backs the cluster admin routes for shape testing.
type stubAdmin struct{}

func (stubAdmin) ClusterStatus() any { return map[string]any{"shards": []int{}} }
func (stubAdmin) ShardLeave(ctx context.Context, id int) error {
	return fmt.Errorf("shard %d not connected", id)
}
func (stubAdmin) ShardJoin(ctx context.Context, id int) error {
	return fmt.Errorf("shard %d has no known address", id)
}

// TestErrorShapesAllRoutes drives every route into a failure and checks
// the contract: the response is application/json with a non-empty "error"
// string, regardless of whether the failure came from a handler, the
// mux's 404/405 machinery, or the live plane. Routes without an
// addressable failure of their own are exercised through the method
// check they all share.
func TestErrorShapesAllRoutes(t *testing.T) {
	// A fresh server so the live plane is in its pre-ingest state.
	s := New(testServer(t).store, 0.03)
	live := NewLiveServer(s, WithClusterAdmin(stubAdmin{}))

	cases := []struct {
		name   string
		h      http.Handler
		method string
		path   string
		body   string
		want   int
	}{
		// Handler-level failures.
		{"intervals unknown family", s, "GET", "/api/intervals?family=mirai", "", 404},
		{"dispersion unknown family", s, "GET", "/api/family/mirai/dispersion", "", 404},
		{"predict unknown family", s, "GET", "/api/family/mirai/predict", "", 404},
		{"predict bad test_points", s, "GET", "/api/family/dirtjumper/predict?test_points=bogus", "", 400},
		{"targets unknown family", s, "GET", "/api/family/mirai/targets", "", 404},
		{"experiment unknown id", s, "GET", "/api/experiments/nope", "", 404},
		{"ingest malformed payload", s, "POST", "/api/ingest", "{not json}\n", 422},
		{"live daily before ingest", s, "GET", "/api/live/daily", "", 422},
		{"live intervals before ingest", s, "GET", "/api/live/intervals", "", 422},
		{"live durations before ingest", s, "GET", "/api/live/durations", "", 422},
		{"live load before ingest", s, "GET", "/api/live/load", "", 422},
		{"live collaborations before ingest", s, "GET", "/api/live/collaborations", "", 422},

		// Mux-level failures rewritten by the jsonErrors middleware.
		{"unknown route", s, "GET", "/api/nope", "", 404},
		{"summary wrong method", s, "POST", "/api/summary", "", 405},
		{"protocols wrong method", s, "POST", "/api/protocols", "", 405},
		{"daily wrong method", s, "POST", "/api/daily", "", 405},
		{"durations wrong method", s, "POST", "/api/durations", "", 405},
		{"families wrong method", s, "POST", "/api/families", "", 405},
		{"collaborations wrong method", s, "POST", "/api/collaborations", "", 405},
		{"chains wrong method", s, "POST", "/api/chains", "", 405},
		{"experiments wrong method", s, "POST", "/api/experiments", "", 405},
		{"ingest wrong method", s, "GET", "/api/ingest", "", 405},
		{"live summary wrong method", s, "POST", "/api/live/summary", "", 405},
		{"ingeststats wrong method", s, "POST", "/api/live/ingeststats", "", 405},
		{"healthz wrong method", s, "POST", "/healthz", "", 405},

		// The live-plane server shares the contract, including its admin
		// routes.
		{"cluster: live daily before ingest", live, "GET", "/api/live/daily", "", 422},
		{"cluster: unknown route", live, "GET", "/api/nope", "", 404},
		{"cluster: ingest wrong method", live, "GET", "/api/ingest", "", 405},
		{"cluster: shard id not a number", live, "POST", "/api/cluster/shards/abc/leave", "", 400},
		{"cluster: leave fails", live, "POST", "/api/cluster/shards/7/leave", "", 422},
		{"cluster: join fails", live, "POST", "/api/cluster/shards/7/join", "", 422},
		{"cluster: status wrong method", live, "POST", "/api/cluster/status", "", 405},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req := httptest.NewRequest(tc.method, tc.path, body)
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, req)

			if rec.Code != tc.want {
				t.Fatalf("%s %s = %d, want %d (body: %.200s)", tc.method, tc.path, rec.Code, tc.want, rec.Body.String())
			}
			ct := rec.Header().Get("Content-Type")
			if !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json (body: %.200s)", ct, rec.Body.String())
			}
			var payload struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
				t.Fatalf("body is not JSON: %v (%.200s)", err, rec.Body.String())
			}
			if payload.Error == "" {
				t.Fatalf("missing error field: %.200s", rec.Body.String())
			}
		})
	}
}

// TestWriteJSONUnencodable holds writeJSON to its contract: a value that
// does not encode answers 500 with the error, never 200 with an empty
// body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"stddev": math.NaN()})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body["error"] == "" {
		t.Errorf("NaN: %d %q, want 500 with an error", rec.Code, rec.Body.String())
	}
}
