package cluster_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"botscope/internal/cluster"
	"botscope/internal/serve"
)

// smallBatches re-cuts the replay feed into ordered JSONL batches of at
// most per records, so a feed has many batch boundaries for membership
// changes to land between and inside.
func smallBatches(batches [][]byte, per int) [][]byte {
	var out [][]byte
	for _, b := range batches {
		lines := bytes.SplitAfter(b, []byte("\n"))
		for len(lines) > 0 {
			n := min(per, len(lines))
			if part := bytes.Join(lines[:n], nil); len(part) > 0 {
				out = append(out, part)
			}
			lines = lines[n:]
		}
	}
	return out
}

// TestClusterConcurrentReadersDuringChurn is the interleaving the sharded
// tier has to survive in production and that nothing else drives: one
// writer replaying the feed, a fleet of readers on every live panel, and
// a shard leaving and rejoining the ring the whole time. Under -race it
// pins that reads stay well-formed 200s (422 only while the stream is
// empty), that nothing answers 5xx, that the writer's running total stays
// exact, that every goroutine exits, and that what the cluster serves
// afterwards either matches the single-process server byte for byte or
// says it is degraded. Once the cluster is closed, no goroutine of it is
// left.
func TestClusterConcurrentReadersDuringChurn(t *testing.T) {
	const (
		readers   = 16
		minCycles = 3
		victim    = "/api/cluster/shards/2/"
	)
	store, feed := replayFeed(t)
	batches := smallBatches(feed, 64)
	t.Cleanup(func() { cluster.Settled(t) }) // runs after startCluster's Local.Close
	_, h := startCluster(t, 4)

	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{}) // closed by the writer when the feed has drained
		churned  = make(chan struct{}) // closed by the churner after minCycles cycles
		accepted atomic.Bool           // set once the first batch is in
		reads    atomic.Int64
	)

	// Error paths (postIngest's t.Fatal included) must not leave a
	// goroutine behind to log into a finished test.
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	defer func() { halt(); wg.Wait() }()

	admin := func(verb string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, victim+verb, nil))
		return rec.Code
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for cycles := 0; ; cycles++ {
			if cycles == minCycles {
				close(churned)
			}
			select {
			case <-stop:
				if cycles >= minCycles {
					return
				}
			default:
			}
			// An ingest chunk in flight when the shard left reports its old
			// session down when the send fails, possibly after the rejoin;
			// that must not take the new session with it (the next leave
			// would find the shard already gone and answer 404).
			if code := admin("leave"); code != http.StatusOK {
				t.Errorf("leave = %d", code)
			}
			if code := admin("join"); code != http.StatusOK {
				t.Errorf("join = %d", code)
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				route := liveRoutes[i%len(liveRoutes)]
				nonEmpty := accepted.Load()
				code, _, body := getBody(t, h, route)
				reads.Add(1)
				switch {
				case code == http.StatusOK:
					if !json.Valid([]byte(body)) {
						t.Errorf("GET %s: malformed JSON: %.200s", route, body)
					}
				case code == http.StatusUnprocessableEntity && !nonEmpty:
					// guarded panels refuse an empty stream
				default:
					t.Errorf("GET %s = %d with the stream non-empty=%t (%.200s)", route, code, nonEmpty, body)
				}
			}
		}(r)
	}

	// The writer is the test goroutine, so postIngest may t.Fatal.
	total := 0
	for i, batch := range batches {
		if i == len(batches)-1 {
			// Hold the last batch until the shard has bounced several
			// times, so the churn is mid-feed on any host speed.
			<-churned
		}
		ingested, running := postIngest(t, h, batch, http.StatusOK)
		if want := bytes.Count(batch, []byte("\n")); ingested != want {
			t.Fatalf("batch %d: ingested %d of %d records", i, ingested, want)
		}
		total += ingested
		if running != total {
			t.Fatalf("batch %d: running total = %d, want %d", i, running, total)
		}
		accepted.Store(true)
	}
	// A reader or churner that never exits hangs here, and go test's
	// -timeout fails the run with its stack.
	halt()
	wg.Wait()
	if reads.Load() < readers {
		t.Errorf("only %d reads completed across %d readers", reads.Load(), readers)
	}

	// The churner's last act was a join, so the ring is whole again. The
	// bounced shard came back empty and was re-fed only from its rejoin
	// on: the merged panels must equal the single-process answer or admit
	// that they do not.
	single := serve.New(store, 0.04)
	for _, batch := range feed {
		postIngest(t, single, batch, http.StatusOK)
	}
	for _, route := range liveRoutes {
		wantCode, _, want := getBody(t, single, route)
		code, hdr, body := getBody(t, h, route)
		if code != wantCode {
			t.Errorf("GET %s after churn = %d, single-process %d (%.200s)", route, code, wantCode, body)
			continue
		}
		if body != want && hdr.Get(serve.HeaderDegraded) != "true" {
			t.Errorf("GET %s diverges from single-process without %s:\n cluster: %.300s\n single:  %.300s",
				route, serve.HeaderDegraded, body, want)
		}
	}
}
