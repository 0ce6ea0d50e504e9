package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"botscope"
)

func TestRunJSONLToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.01", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.HasPrefix(text, `{"ddos_id":`) {
		t.Errorf("missing JSONL record: %.120s", text)
	}
	attacks, err := botscope.ReadJSONL(strings.NewReader(text))
	if err != nil {
		t.Fatalf("generated JSONL unreadable: %v", err)
	}
	if len(attacks) < 100 {
		t.Errorf("attacks = %d, want hundreds at scale 0.01", len(attacks))
	}
}

func TestRunJSONLToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attacks.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.01", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	attacks, err := botscope.ReadJSONL(f)
	if err != nil {
		t.Fatalf("generated JSONL unreadable: %v", err)
	}
	if len(attacks) == 0 {
		t.Error("no attacks exported")
	}
	if out.Len() != 0 {
		t.Error("file export also wrote to stdout")
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-scale", "0.005", "-seed", "9"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "0.005", "-seed", "9"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different exports")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}
