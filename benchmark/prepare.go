package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"botscope"
	"botscope/internal/dataset"
)

// batchRecords is how many attacks one POST /api/ingest carries.
const batchRecords = 250

// batchRef locates one pre-split batch inside the feed file.
type batchRef struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"`
}

// manifest is what set-up tells the measuring process about the inputs it
// generated: their sizes, where each feed batch lies, and how long each
// set-up step took. The sizes repeat exactly for a given seed and scale.
type manifest struct {
	DataSeed int64      `json:"data_seed"`
	Scale    float64    `json:"scale"`
	Attacks  int        `json:"attacks"`
	Bots     int        `json:"bots"`
	Batches  []batchRef `json:"batches"`

	SnapshotBytes int64 `json:"snapshot_bytes"`
	FeedBytes     int64 `json:"feed_bytes"`

	// Wall-clock seconds of the four set-up steps and their sum, and of
	// putting the encoded bytes on disk, which is not part of the sum.
	GenerateS      float64 `json:"generate_s"`
	NewStoreS      float64 `json:"newstore_s"`
	WriteSnapshotS float64 `json:"write_snapshot_s"`
	WriteJSONLS    float64 `json:"write_jsonl_s"`
	SetupWallS     float64 `json:"setup_wall_s"`
	DiskWriteS     float64 `json:"disk_write_s"`
}

// expect holds the reference digests the workloads check their outputs
// against.
type expect struct {
	// Report is the SHA-256 of the 28 rendered experiments, computed on
	// the generated store before it went through the snapshot codec.
	Report string `json:"report_sha256"`
	// Explore maps each route of the explore_warm cycle that the generated
	// store's server answered with 200 to the SHA-256 of its body.
	Explore map[string]string `json:"explore_sha256"`
	// Live maps each /api/live/* path to the SHA-256 of its body after a
	// reference single-process server ingested the whole feed.
	Live map[string]string `json:"live_sha256"`
}

// inputs is a prepared directory as the measuring process sees it.
type inputs struct {
	manifest
	Expect   expect
	Snapshot string // path of the BSCS snapshot
	feed     *os.File
}

// batch returns a reader over feed batch i. Batches are read from the
// file per request rather than held in memory, so the feed does not count
// towards the measuring process's peak RSS.
func (in *inputs) batch(i int) io.Reader {
	return io.NewSectionReader(in.feed, in.Batches[i].Off, in.Batches[i].Len)
}

func (in *inputs) close() { in.feed.Close() }

const (
	snapshotFile = "snapshot.bscs"
	feedFile     = "feed.jsonl"
	manifestFile = "manifest.json"
	expectFile   = "expect.json"
)

// prepareInputs generates the dataset for dataSeed at o's scale and writes
// the snapshot, the time-ordered JSONL feed cut into batchRecords-record
// batches, and the manifest into dir. It then computes the reference
// digests want names — "all", the one workload that will check them, or
// none when empty — and writes expect.json; that part is output checking,
// not set-up, and is not counted in setup_s.
func prepareInputs(dir string, dataSeed int64, smoke bool, want string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	scale := options{smoke: smoke}.scale()
	m := manifest{DataSeed: dataSeed, Scale: scale}
	step := func(dst *float64, f func() error) error {
		start := time.Now()
		err := f()
		*dst = time.Since(start).Seconds()
		return err
	}

	var (
		attacks []*botscope.Attack
		botnets []*botscope.Botnet
		bots    []*botscope.Bot
		store   *botscope.Store
	)
	if err := step(&m.GenerateS, func() (err error) {
		attacks, botnets, bots, err = botscope.GenerateRaw(botscope.GenerateConfig{Seed: dataSeed, Scale: scale})
		return err
	}); err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	if err := step(&m.NewStoreS, func() (err error) {
		store, err = botscope.NewStore(attacks, botnets, bots)
		return err
	}); err != nil {
		return fmt.Errorf("newstore: %w", err)
	}
	m.Attacks, m.Bots = store.NumAttacks(), store.NumBots()

	// The two encoders write into memory and the bytes go to disk outside
	// the timers: this sandbox stalls buffered file writes for seconds at a
	// time (the 50 MB feed took 0.3 to 3.5 s to write on an idle guest),
	// which says nothing about the code and cannot be scaled away.
	var snapshot, feed bytes.Buffer
	if err := step(&m.WriteSnapshotS, func() error { return botscope.WriteSnapshot(&snapshot, store) }); err != nil {
		return fmt.Errorf("write snapshot: %w", err)
	}
	if err := step(&m.WriteJSONLS, func() error {
		ordered := store.Attacks() // time-ordered, as a collector emits them
		for lo := 0; lo < len(ordered); lo += batchRecords {
			off := feed.Len()
			if err := dataset.WriteJSONL(&feed, ordered[lo:min(lo+batchRecords, len(ordered))]); err != nil {
				return err
			}
			m.Batches = append(m.Batches, batchRef{Off: int64(off), Len: int64(feed.Len() - off)})
		}
		return nil
	}); err != nil {
		return fmt.Errorf("write feed: %w", err)
	}
	m.SetupWallS = m.GenerateS + m.NewStoreS + m.WriteSnapshotS + m.WriteJSONLS
	m.SnapshotBytes, m.FeedBytes = int64(snapshot.Len()), int64(feed.Len())
	if err := step(&m.DiskWriteS, func() error {
		if err := overwrite(filepath.Join(dir, snapshotFile), snapshot.Bytes()); err != nil {
			return err
		}
		return overwrite(filepath.Join(dir, feedFile), feed.Bytes())
	}); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, manifestFile), &m); err != nil {
		return err
	}

	var ex expect
	wanted := func(workloads ...string) bool { return want == "all" || slices.Contains(workloads, want) }
	if wanted("report_batch") {
		var err error
		if ex.Report, _, _, err = runReport(store, scale, nil, func(int, time.Duration) {}); err != nil {
			return fmt.Errorf("reference report: %w", err)
		}
	}
	if wanted("explore_warm") {
		ex.Explore = exploreReference(store, scale)
	}
	if wanted("live_single", "live_sharded") {
		in, err := loadInputs(dir)
		if err != nil {
			return err
		}
		defer in.close()
		if ex.Live, err = liveReference(in); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, expectFile), &ex)
}

// loadInputs opens a prepared directory. A missing expect.json is not an
// error here (prepareInputs itself loads the directory before writing
// it); a workload whose digests are missing fails its checks, as it must.
func loadInputs(dir string) (*inputs, error) {
	in := &inputs{Snapshot: filepath.Join(dir, snapshotFile)}
	if err := readJSON(filepath.Join(dir, manifestFile), &in.manifest); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, expectFile), &in.Expect); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	feed, err := os.Open(filepath.Join(dir, feedFile))
	if err != nil {
		return nil, err
	}
	in.feed = feed
	return in, nil
}

// overwrite stores data in path, reusing the blocks of a file already
// there instead of freeing them and allocating new ones.
func overwrite(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // error paths only; the success path checks Close below
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Truncate(int64(len(data))); err != nil {
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
