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
	encode := func(seed int64) []byte {
		t.Helper()
		store, err := GenerateStore(Config{Seed: seed, Scale: 0.05})
		if err != nil {
			t.Fatalf("GenerateStore(seed %d): %v", seed, err)
		}
		var buf bytes.Buffer
		if err := dataset.WriteJSONL(&buf, store.Attacks()); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes()
	}

	jsonl1, jsonl2 := encode(42), encode(42)
	if !bytes.Equal(jsonl1, jsonl2) {
		t.Errorf("two same-seed runs produced different JSONL output (%d vs %d bytes)", len(jsonl1), len(jsonl2))
	}
	if len(jsonl1) == 0 {
		t.Fatal("encoded output is empty; determinism check is vacuous")
	}

	// A different seed must actually change the output, otherwise the
	// equality assertions above prove nothing about the generator.
	if bytes.Equal(jsonl1, encode(43)) {
		t.Error("different seeds produced identical JSONL output; generator ignores the seed")
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
		if err := dataset.WriteJSONL(&buf, out.Attacks); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
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
