package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"botscope"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.02", "-seed", "2", "-only", "Table II"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Table II") || !strings.Contains(text, "dirtjumper") {
		t.Errorf("experiment output malformed:\n%.300s", text)
	}
	if strings.Contains(text, "Figure 3") {
		t.Error("-only leaked other experiments")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.02", "-only", "Table XIV"}, &out); err == nil {
		t.Error("unknown experiment ID accepted")
	}
}

func TestRunMarkdown(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.02", "-seed", "2", "-markdown"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.HasPrefix(text, "| Experiment | Metric | Measured | Paper |") {
		t.Errorf("markdown header missing:\n%.120s", text)
	}
	for _, id := range []string{"Figure 1", "Table VI", "Figure 18"} {
		if !strings.Contains(text, id) {
			t.Errorf("markdown missing %s", id)
		}
	}
}

// At scale 0.001 three experiments lack the data they need. Every mode
// must still print the rest, name each failure on stdout, and return an
// error so the process exits 1.
func TestRunReportsFailedExperiments(t *testing.T) {
	failing := []string{"Figure 12", "Figure 13", "Ext: Transfer"}
	for _, tc := range []struct {
		name    string
		args    []string
		failFmt string // what a failed experiment's line starts with
		ok      string
	}{
		{"sequential", nil, "== %s: FAILED: ", "== Table II — "},
		{"markdown", []string{"-markdown"}, "| %s | (failed: ", "| Table II | "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(append([]string{"-scale", "0.001"}, tc.args...), &out)
			if err == nil {
				t.Fatal("run returned nil with failed experiments")
			}
			text := out.String()
			for _, id := range failing {
				if !strings.Contains(text, fmt.Sprintf(tc.failFmt, id)) {
					t.Errorf("stdout does not name failed %s", id)
				}
				if !strings.Contains(err.Error(), id+": ") {
					t.Errorf("error does not name %s: %v", id, err)
				}
			}
			if !strings.Contains(text, tc.ok) {
				t.Errorf("successful experiments not printed:\n%.300s", text)
			}
		})
	}
}

func TestRunFromJSONL(t *testing.T) {
	// Export a workload, then analyze the file instead of regenerating.
	store, err := botscope.Generate(botscope.GenerateConfig{Seed: 4, Scale: 0.02})
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
	// A record export has no Botlist, so source-side experiments fail; a
	// target-side experiment must still work.
	if err := run([]string{"-in", path, "-scale", "0.02", "-only", "Table V"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table V") {
		t.Errorf("JSONL-driven run missing output:\n%.200s", out.String())
	}
}

func TestRunBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-in", "/nonexistent/file.jsonl"}, &out); err == nil {
		t.Error("missing input file accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}
