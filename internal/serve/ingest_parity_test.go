package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"botscope/internal/cluster"
)

// ingestRecord is one feed line as WriteJSONL writes it; minute places it
// in event time and org goes in verbatim, escapes included.
func ingestRecord(id, minute int, targetIP, org string) string {
	return fmt.Sprintf(`{"ddos_id":%d,"botnet_id":7,"family":"optima","category":"HTTP","target_ip":"%s",`+
		`"timestamp":"2012-08-01T00:%02d:00Z","end_time":"2012-08-01T01:00:00Z","botnet_ips":["198.51.100.1","198.51.100.2"],`+
		`"asn":64500,"cc":"US","city":"Seattle","org":"%s","latitude":47.6,"longitude":-122.3}`+"\n",
		id, targetIP, minute, org)
}

// TestIngestResponsesUnchanged posts batches that take the JSONL
// scanner's own path, its encoding/json path and each way a batch can be
// refused, to the single-process server and to a live server over a
// two-shard cluster. Status and body must be, byte for byte, what both
// tiers answered when encoding/json decoded every record.
func TestIngestResponsesUnchanged(t *testing.T) {
	ok := func(id, minute int) string { return ingestRecord(id, minute, "192.0.2.1", "Example Net") }
	tests := []struct {
		name, body string
		status     int
		want       string // both tiers' response body at the parent commit
	}{
		{
			name:   "three records the scanner takes",
			body:   ok(1, 0) + ok(2, 1) + ok(3, 2),
			status: http.StatusOK,
			want:   "{\n  \"ingested\": 3,\n  \"total\": 3\n}",
		},
		{
			name:   "an escaped org between two plain records",
			body:   ok(1, 0) + ingestRecord(2, 1, "192.0.2.1", `Example \"Net\" & Co`) + ok(3, 2),
			status: http.StatusOK,
			want:   "{\n  \"ingested\": 3,\n  \"total\": 3\n}",
		},
		{
			name:   "malformed JSON between two valid records",
			body:   ok(1, 0) + `{"ddos_id":2,"botnet_id":}` + "\n" + ok(3, 2),
			status: http.StatusUnprocessableEntity,
			want:   `{"error":"dataset: decode jsonl record 2: invalid character '}' looking for beginning of value","ingested":1,"total":1}`,
		},
		{
			name:   "an out-of-order record between two valid ones",
			body:   ok(1, 5) + ok(2, 1) + ok(3, 6),
			status: http.StatusUnprocessableEntity,
			want:   `{"error":"stream: attack starts before the previously ingested attack: 2012-08-01 00:01:00 +0000 UTC \u003c 2012-08-01 00:05:00 +0000 UTC (attack 2)","ingested":1,"total":1}`,
		},
		{
			name:   "a bad target_ip after a valid record",
			body:   ok(1, 0) + ingestRecord(2, 1, "192.0.2.256", "Example Net"),
			status: http.StatusUnprocessableEntity,
			want:   `{"error":"dataset: jsonl record 2: target_ip: ParseAddr(\"192.0.2.256\"): IPv4 field has value \u003e255","ingested":1,"total":1}`,
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			single := New(testServer(t).store, 0.03)
			local, err := cluster.StartLocal(context.Background(), 2, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close()
			tiers := map[string]http.Handler{"single": single, "sharded": NewLiveServer(local.Frontend)}
			for name, h := range tiers {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/ingest", strings.NewReader(tc.body)))
				if got := strings.TrimSpace(rec.Body.String()); rec.Code != tc.status || got != tc.want {
					t.Errorf("%s: %d %s\nwant %d %s", name, rec.Code, got, tc.status, tc.want)
				}
			}
			// The single-process total is the analyzer's O(1) counter, and
			// the counter is what a snapshot would have said.
			if got, snap := single.Live().Ingested(), single.Live().Snapshot().Ingested; got != snap {
				t.Errorf("Ingested() = %d, Snapshot().Ingested = %d", got, snap)
			}
		})
	}
}

// repeatReader serves rec over and over until n bytes have gone out.
type repeatReader struct {
	rec []byte
	off int
	n   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	c := copy(p[:min(len(p), r.n)], r.rec[r.off:])
	r.off, r.n = (r.off+c)%len(r.rec), r.n-c
	return c, nil
}

// TestIngestBodyLimit posts, to both tiers, a batch of the benchmark's
// size and then a body past maxIngestBody streamed from one repeating
// valid record. The first is taken whole; the second is cut off at the
// limit and answered 413 in the ingest error shape, with the records
// before the cut applied and the request counted as rejected.
func TestIngestBodyLimit(t *testing.T) {
	var batch strings.Builder
	for i := 0; i < 250; i++ {
		batch.WriteString(ingestRecord(i+1, i*60/250, "192.0.2.1", "Example Net"))
	}
	// One fat record, an hour after the batch, keeps the record count —
	// and so the test — small.
	fat := []byte(strings.Replace(ingestRecord(999, 0, "192.0.2.1", strings.Repeat("Example Net ", 10000)), "T00:", "T01:", 1))

	local, err := cluster.StartLocal(context.Background(), 2, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	tiers := map[string]http.Handler{"single": New(testServer(t).store, 0.03), "sharded": NewLiveServer(local.Frontend)}
	for name, h := range tiers {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/ingest", strings.NewReader(batch.String())))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: 250-record batch = %d %s", name, rec.Code, rec.Body)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/ingest", &repeatReader{rec: fat, n: maxIngestBody + len(fat)}))
		var resp struct {
			Error           string
			Ingested, Total int
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: over-limit body = %d %q: %v", name, rec.Code, rec.Body, err)
		}
		if want := maxIngestBody / len(fat); rec.Code != http.StatusRequestEntityTooLarge || resp.Error == "" ||
			resp.Ingested != want || resp.Total != 250+want {
			t.Errorf("%s: over-limit body = %d %+v, want 413 with the %d whole records applied", name, rec.Code, resp, want)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/live/ingeststats", nil))
		var stats struct{ Requests, Records, Rejected int }
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil || stats.Requests != 2 || stats.Rejected != 1 {
			t.Errorf("%s: ingeststats = %s (%v), want 2 requests, 1 rejected", name, rec.Body, err)
		}
	}
}

// TestOneLiveRouteTable holds serve.New's live plane to the LiveServer's:
// after the same good batch, refused batch and good batch, a Server and a
// LiveServer over a Server answer every live route, an unknown one and a
// wrong method with the same status and bytes. A second handler set in
// serve.New would have to be kept equal to pass.
func TestOneLiveRouteTable(t *testing.T) {
	ok := func(id, minute int) string { return ingestRecord(id, minute, "192.0.2.1", "Example Net") }
	batches := []string{
		ok(1, 0) + ingestRecord(2, 0, "192.0.2.1", "Example Net") + ok(3, 2),
		ok(4, 3) + `{"ddos_id":5,"botnet_id":}` + "\n" + ok(6, 5),
		ok(7, 1), // out of order: refused whole
		ok(8, 6) + ok(9, 7),
	}
	store := testServer(t).store
	direct, mounted := http.Handler(New(store, 0.03)), http.Handler(NewLiveServer(New(store, 0.03)))

	// last_ingest is the wall clock to the second; every other byte of
	// every body is a function of the feed.
	lastIngest := regexp.MustCompile(`"last_ingest": "[^"]*"`)
	same := func(method, path, body string) {
		t.Helper()
		var got [2]string
		for i, h := range []http.Handler{direct, mounted} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			got[i] = fmt.Sprintf("%d %s %s", rec.Code, rec.Header().Get("Content-Type"),
				lastIngest.ReplaceAllString(rec.Body.String(), `"last_ingest": ""`))
		}
		if got[0] != got[1] {
			t.Errorf("%s %s\nserve.New:       %s\nNewLiveServer:   %s", method, path, got[0], got[1])
		}
	}
	refresh := func() {
		t.Helper()
		for _, route := range []string{"summary", "daily", "intervals", "durations", "load", "collaborations", "ingeststats", "nope"} {
			same(http.MethodGet, "/api/live/"+route, "")
		}
		same(http.MethodGet, "/healthz", "")
		same(http.MethodPost, "/api/live/daily", "")
		same(http.MethodGet, "/api/ingest", "")
	}

	refresh()
	for _, b := range batches {
		same(http.MethodPost, "/api/ingest", b)
		refresh()
	}
}
