package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"botscope"
	"botscope/internal/serve"
)

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-zzz"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunNegativeSpeedup(t *testing.T) {
	if err := run([]string{"-speedup", "-1"}, &bytes.Buffer{}); err == nil {
		t.Error("negative speedup accepted")
	}
}

func TestRunMissingInputFile(t *testing.T) {
	if err := run([]string{"-in", "/nonexistent/attacks.jsonl"}, &bytes.Buffer{}); err == nil {
		t.Error("missing input file accepted")
	}
}

func TestRunUnknownFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attacks.csv")
	if err := os.WriteFile(path, []byte("ddos_id,botnet_id,family\n1,7,optima\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-in", path}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "jsonl record 1") {
		t.Errorf("non-JSONL input: %v, want a JSONL decode error", err)
	}
}

// TestRunSnapshotAndIn: two replay sources are refused, as botreport and
// botserve refuse them, rather than one silently winning.
func TestRunSnapshotAndIn(t *testing.T) {
	err := run([]string{"-in", "attacks.jsonl", "-snapshot", "work.bscs"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-in with -snapshot: %v, want a mutual-exclusion error", err)
	}
}

func TestRunGeneratedInProcess(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.01", "-seed", "3", "-report", "100"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "attacks ingested") || !strings.Contains(text, "peak concurrent") {
		t.Errorf("summary output missing expected rows:\n%s", text)
	}
}

func TestRunJSONLReplay(t *testing.T) {
	store, err := botscope.Generate(botscope.GenerateConfig{Seed: 3, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "attacks.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := botscope.WriteJSONL(f, store.Attacks()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "attacks ingested") {
		t.Errorf("summary output missing:\n%s", out.String())
	}
}

func TestRunRemoteFeed(t *testing.T) {
	store, err := botscope.Generate(botscope.GenerateConfig{Seed: 3, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(store, 0.01)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-scale", "0.01", "-seed", "3", "-url", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	snap := srv.Live().Snapshot()
	if snap.Ingested != store.NumAttacks() {
		t.Errorf("remote ingested %d attacks, want %d", snap.Ingested, store.NumAttacks())
	}
	if !strings.Contains(out.String(), "\"ingested\"") {
		t.Errorf("remote summary output missing:\n%s", out.String())
	}
}
