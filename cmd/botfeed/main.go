// Command botfeed replays an attack workload as a live stream, in
// event-time order, into a streaming analyzer — either in-process or a
// running botserve instance over POST /api/ingest.
//
// Usage:
//
//	botfeed -scale 0.05 -seed 1                      # generate + ingest in-process
//	botfeed -in attacks.jsonl                        # replay a file in-process
//	botfeed -in attacks.jsonl -url http://localhost:8080 # feed a botserve
//	botfeed -scale 0.05 -speedup 100000              # pace by event time / 100000
//
// With -speedup 0 (the default) the replay runs at maximum speed; any
// other value sleeps the inter-attack event-time gap divided by the
// factor, so -speedup 1 replays in real time. Input files are JSON lines
// sorted by start time (botgen output is); out-of-order records abort the
// feed.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"botscope"
	"botscope/internal/report"
)

// ingestBatch bounds how many records a single POST /api/ingest carries in
// remote mode.
const ingestBatch = 500

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "botfeed:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("botfeed", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 1, "generation seed when no -in file is given")
		scale   = fs.Float64("scale", 0.1, "workload scale; 1.0 = paper size")
		in      = fs.String("in", "", "replay this JSONL attack file instead of generating")
		snap    = fs.String("snapshot", "", "replay this BSCS snapshot instead of generating")
		speedup = fs.Float64("speedup", 0, "event-time speedup factor; 0 = max speed, 1 = real time")
		url     = fs.String("url", "", "feed a running botserve at this base URL instead of in-process")
		every   = fs.Int("report", 0, "print progress every N attacks (0 = only the final summary)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *speedup < 0 {
		return fmt.Errorf("speedup must be >= 0, got %v", *speedup)
	}

	var sink feedSink
	if *url != "" {
		sink = &remoteSink{base: strings.TrimRight(*url, "/")}
	} else {
		sink = &localSink{analyzer: botscope.NewStreamAnalyzer()}
	}

	feed := func(fn func(*botscope.Attack) error) error {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		return botscope.DecodeJSONL(f, fn)
	}
	// -in streams its file record by record; every other source is a
	// store, and Open refuses -in together with -snapshot.
	if *in == "" || *snap != "" {
		if *snap == "" {
			fmt.Fprintf(os.Stderr, "generating workload (seed %d, scale %.3f)...\n", *seed, *scale)
		}
		store, err := botscope.Source{Seed: *seed, Scale: *scale, In: *in, Snapshot: *snap}.Open()
		if err != nil {
			return err
		}
		if *snap != "" {
			fmt.Fprintf(os.Stderr, "replaying snapshot %s (%d attacks)\n", *snap, store.NumAttacks())
		}
		defer store.Close()
		// Replay row by row: each row builds one attack record that the
		// store does not keep, so a snapshot-loaded store streams without
		// building the full record arena, and a record is garbage once
		// the sink is done with it.
		feed = func(fn func(*botscope.Attack) error) error {
			for i, n := 0, store.NumAttacks(); i < n; i++ {
				if err := fn(store.AttackRecordAt(i)); err != nil {
					return err
				}
			}
			return nil
		}
	}

	n := 0
	started := time.Now()
	var prev time.Time
	err := feed(func(a *botscope.Attack) error {
		if *speedup > 0 && !prev.IsZero() {
			if gap := a.Start.Sub(prev); gap > 0 {
				time.Sleep(time.Duration(float64(gap) / *speedup))
			}
		}
		prev = a.Start
		if err := sink.ingest(a); err != nil {
			return err
		}
		n++
		if *every > 0 && n%*every == 0 {
			fmt.Fprintf(os.Stderr, "fed %d attacks (event time %s)\n", n, a.Start.UTC().Format(time.RFC3339))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("after %d attacks: %w", n, err)
	}
	if err := sink.flush(); err != nil {
		return fmt.Errorf("after %d attacks: %w", n, err)
	}

	elapsed := time.Since(started)
	rate := float64(n) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "fed %d attacks in %s (%.0f attacks/sec)\n", n, elapsed.Round(time.Millisecond), rate)
	return sink.report(stdout)
}

// feedSink abstracts where replayed attacks land: an in-process analyzer or
// a remote botserve's ingest endpoint.
type feedSink interface {
	ingest(a *botscope.Attack) error
	flush() error
	report(w io.Writer) error
}

// localSink ingests into an in-process streaming analyzer.
type localSink struct {
	analyzer *botscope.StreamAnalyzer
}

func (s *localSink) ingest(a *botscope.Attack) error { return s.analyzer.Ingest(a) }
func (s *localSink) flush() error                    { return nil }

func (s *localSink) report(w io.Writer) error {
	snap := s.analyzer.Snapshot()
	t := report.NewTable("live snapshot", "metric", "value")
	t.SetAlign(1, report.AlignRight)
	t.AddRow("attacks ingested", report.FormatInt(snap.Ingested))
	t.AddRow("active attacks", report.FormatInt(snap.ActiveAttacks))
	t.AddRow("peak concurrent", report.FormatInt(snap.Load.Peak))
	t.AddRow("daily max", report.FormatInt(snap.Daily.Max))
	t.AddRow("interval median (s)", fmt.Sprintf("%.0f", snap.Intervals.Median))
	t.AddRow("duration median (s)", fmt.Sprintf("%.0f", snap.Durations.Median))
	t.AddRow("collaborations (intra)", report.FormatInt(snap.Collaborations.TotalIntra))
	t.AddRow("collaborations (inter)", report.FormatInt(snap.Collaborations.TotalInter))
	_, err := fmt.Fprint(w, t.String())
	return err
}

// remoteSink batches attacks as JSONL and POSTs them to /api/ingest.
type remoteSink struct {
	base  string
	buf   bytes.Buffer
	batch []*botscope.Attack
	total int
}

func (s *remoteSink) ingest(a *botscope.Attack) error {
	s.batch = append(s.batch, a)
	if len(s.batch) < ingestBatch {
		return nil
	}
	return s.flush()
}

func (s *remoteSink) flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	s.buf.Reset()
	if err := botscope.WriteJSONL(&s.buf, s.batch); err != nil {
		return err
	}
	resp, err := http.Post(s.base+"/api/ingest", "application/jsonl", &s.buf)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: %s: %.300s", resp.Status, body)
	}
	s.total += len(s.batch)
	s.batch = s.batch[:0]
	return nil
}

func (s *remoteSink) report(w io.Writer) error {
	resp, err := http.Get(s.base + "/api/live/summary")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("live summary: %s", resp.Status)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
