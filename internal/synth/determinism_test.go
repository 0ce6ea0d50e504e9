package synth

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"botscope/internal/dataset"
)

// TestGenerateDeterministic is the regression gate behind the nodeterm
// analyzer: two independent runs with the same seed must produce
// byte-identical encoded datasets. Any stray time.Now, global rand call, or
// map-iteration-ordered output in the synthesis path shows up here as a
// byte diff.
func TestGenerateDeterministic(t *testing.T) {
	encode := func() (csvOut, jsonlOut []byte) {
		t.Helper()
		store, err := GenerateStore(Config{Seed: 42, Scale: 0.05})
		if err != nil {
			t.Fatalf("GenerateStore: %v", err)
		}
		attacks := store.Attacks()
		var csvBuf, jsonlBuf bytes.Buffer
		if err := dataset.WriteCSV(&csvBuf, attacks); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		if err := dataset.WriteJSONL(&jsonlBuf, attacks); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return csvBuf.Bytes(), jsonlBuf.Bytes()
	}

	csv1, jsonl1 := encode()
	csv2, jsonl2 := encode()

	if !bytes.Equal(csv1, csv2) {
		t.Errorf("two same-seed runs produced different CSV output (%d vs %d bytes)", len(csv1), len(csv2))
	}
	if !bytes.Equal(jsonl1, jsonl2) {
		t.Errorf("two same-seed runs produced different JSONL output (%d vs %d bytes)", len(jsonl1), len(jsonl2))
	}
	if len(csv1) == 0 || len(jsonl1) == 0 {
		t.Fatal("encoded outputs are empty; determinism check is vacuous")
	}

	// A different seed must actually change the output, otherwise the
	// equality assertions above prove nothing about the generator.
	store, err := GenerateStore(Config{Seed: 43, Scale: 0.05})
	if err != nil {
		t.Fatalf("GenerateStore(seed 43): %v", err)
	}
	var other bytes.Buffer
	if err := dataset.WriteCSV(&other, store.Attacks()); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if bytes.Equal(csv1, other.Bytes()) {
		t.Error("different seeds produced identical CSV output; generator ignores the seed")
	}
}

// TestGenerateParallelMatchesSequential pins the tentpole invariant of the
// parallel generator: family shards are seeded independently, ID ranges
// are precomputed, and the merge happens in profile order — so any
// GOMAXPROCS must reproduce the sequential output byte for byte, across
// all three record kinds (attacks, botnets, bots).
func TestGenerateParallelMatchesSequential(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	encode := func(procs int) []byte {
		t.Helper()
		runtime.GOMAXPROCS(procs)
		out, err := Generate(Config{Seed: 7, Scale: 0.05})
		if err != nil {
			t.Fatalf("Generate(GOMAXPROCS=%d): %v", procs, err)
		}
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, out.Attacks); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		for _, b := range out.Botnets {
			fmt.Fprintf(&buf, "%d,%s,%s,%s\n", b.ID, b.Family, b.Hash, b.ControllerIP)
		}
		for _, b := range out.Bots {
			fmt.Fprintf(&buf, "%s,%d,%s,%s\n", b.IP, b.ASN, b.CountryCode, b.City)
		}
		return buf.Bytes()
	}

	seq := encode(1)
	if len(seq) == 0 {
		t.Fatal("sequential generation produced no output; comparison is vacuous")
	}
	for _, procs := range []int{2, 3, 7} {
		if got := encode(procs); !bytes.Equal(seq, got) {
			t.Errorf("GOMAXPROCS=%d output differs from sequential (%d vs %d bytes)", procs, len(got), len(seq))
		}
	}
}
