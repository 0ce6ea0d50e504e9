package botscope

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/experiments"
)

// TestSnapshotRoundTripRunall is the end-to-end gate on the binary
// columnar snapshot codec: generate a workload, snapshot it, reload it,
// and render every table, figure, and extension from both stores. The
// outputs must be byte-identical — the same discipline as the
// parallel-synth determinism tests, so any divergence in bot dense
// numbering, index order, or timestamp round-tripping shows up as a byte
// diff in a named experiment rather than a subtle metric drift.
func TestSnapshotRoundTripRunall(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale round trip skipped in -short mode")
	}
	scale := roundTripScale

	store, err := Generate(GenerateConfig{Seed: 1, Scale: scale})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	var snap bytes.Buffer
	if err := WriteSnapshot(&snap, store); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	reloaded, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}

	if got, want := reloaded.NumAttacks(), store.NumAttacks(); got != want {
		t.Fatalf("reloaded store has %d attacks, want %d", got, want)
	}
	if got, want := reloaded.NumBots(), store.NumBots(); got != want {
		t.Fatalf("reloaded store has %d bots, want %d", got, want)
	}
	if got, want := reloaded.NumBotnets(), store.NumBotnets(); got != want {
		t.Fatalf("reloaded store has %d botnets, want %d", got, want)
	}

	// Render the full experiment suite from both stores before touching
	// the record face of the reloaded one: the whole run must stay on the
	// column cursors, which is the tentpole property of the lazy load
	// path.
	genOut := renderAll(t, store, scale)
	snapOut := renderAll(t, reloaded, scale)
	if reloaded.RecordsMaterialized() {
		t.Fatal("runall materialized the record view of the snapshot-loaded store")
	}
	if len(genOut) == 0 {
		t.Fatal("runall produced no output; byte-identity check is vacuous")
	}

	// The raw record export must survive the round trip exactly; this is
	// the first record-face touch, so it also exercises lazy
	// materialization on a full-size store.
	var csvGen, csvSnap bytes.Buffer
	if err := WriteCSV(&csvGen, store.Attacks()); err != nil {
		t.Fatalf("WriteCSV(generated): %v", err)
	}
	if err := WriteCSV(&csvSnap, reloaded.Attacks()); err != nil {
		t.Fatalf("WriteCSV(reloaded): %v", err)
	}
	if !reloaded.RecordsMaterialized() {
		t.Fatal("Attacks() did not materialize the record view")
	}
	if !bytes.Equal(csvGen.Bytes(), csvSnap.Bytes()) {
		t.Fatalf("CSV export differs after snapshot round trip (%d vs %d bytes)",
			csvGen.Len(), csvSnap.Len())
	}
	for id, want := range genOut {
		got, ok := snapOut[id]
		if !ok {
			t.Errorf("%s: missing from snapshot-loaded run", id)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: output differs after snapshot round trip (%d vs %d bytes)",
				id, len(want), len(got))
		}
	}
	if len(snapOut) != len(genOut) {
		t.Errorf("snapshot-loaded run rendered %d experiments, want %d", len(snapOut), len(genOut))
	}
}

// renderAll runs every experiment against s and returns the rendered
// output (text plus metrics) keyed by experiment ID.
func renderAll(t *testing.T, s *Store, scale float64) map[string][]byte {
	t.Helper()
	w := experiments.FromStore(s, scale)
	out := make(map[string][]byte)
	for _, e := range w.All() {
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out[res.ID] = []byte(fmt.Sprintf("== %s — %s\n%s%s\n", res.ID, res.Title, res.Text, res.MetricsText()))
	}
	return out
}

// TestStoreOriginsAgree pins that the two constructors return the same
// store: a NewStore store and its snapshot reload answer every count,
// index and bound identically, encode to the same bytes, and differ only
// in whose records back the record view — NewStore keeps the caller's.
func TestStoreOriginsAgree(t *testing.T) {
	attacks, botnets, bots, err := GenerateRaw(GenerateConfig{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatalf("GenerateRaw: %v", err)
	}
	built, err := NewStore(attacks, botnets, bots)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	snap := dataset.EncodeSnapshot(built)
	reloaded, err := ReadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}

	first, last, _ := built.TimeBounds()
	mid := first.Add(last.Sub(first) / 2)
	rowsInRange := func(s *Store) any {
		lo, hi := s.RowsInRange(first.Add(time.Hour), mid)
		return [2]int{lo, hi}
	}
	perTarget := func(s *Store) any {
		var rows [][]int32
		for _, tid := range s.TargetIDs() {
			rows = append(rows, s.TargetRows(tid))
		}
		return rows
	}
	perFamily := func(s *Store) any {
		var rows [][]int32
		for _, f := range s.Families() {
			rows = append(rows, s.RowsByFamily(f))
		}
		return rows
	}
	for _, tc := range []struct {
		name string
		get  func(s *Store) any
	}{
		{"NumAttacks", func(s *Store) any { return s.NumAttacks() }},
		{"NumBots", func(s *Store) any { return s.NumBots() }},
		{"NumBotnets", func(s *Store) any { return s.NumBotnets() }},
		{"NumTargets", func(s *Store) any { return s.NumTargets() }},
		{"Families", func(s *Store) any { return s.Families() }},
		{"FamilyCounts", func(s *Store) any { return s.FamilyCounts() }},
		{"Targets", func(s *Store) any { return s.Targets() }},
		{"TimeBounds", func(s *Store) any {
			first, last, ok := s.TimeBounds()
			return []any{first, last, ok}
		}},
		{"Summary", func(s *Store) any { return s.Summary() }},
		{"RowsByFamily", perFamily},
		{"TargetRows", perTarget},
		{"RowsInRange", rowsInRange},
	} {
		if got, want := tc.get(reloaded), tc.get(built); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reloaded store answers %v, NewStore store %v", tc.name, got, want)
		}
	}
	if built.NumAttacks() == 0 || built.NumBots() == 0 || len(built.Families()) < 2 {
		t.Fatal("workload too small; the agreement check is vacuous")
	}
	if !bytes.Equal(dataset.EncodeSnapshot(reloaded), snap) {
		t.Error("EncodeSnapshot bytes differ between the NewStore store and its reload")
	}

	if !built.RecordsMaterialized() || reloaded.RecordsMaterialized() {
		t.Errorf("RecordsMaterialized: NewStore store %v (want true), reloaded %v (want false)",
			built.RecordsMaterialized(), reloaded.RecordsMaterialized())
	}
	own := make(map[*Attack]bool, len(attacks))
	for _, a := range attacks {
		own[a] = true
	}
	for i, a := range built.Attacks() {
		if !own[a] {
			t.Fatalf("Attacks()[%d] on the NewStore store is not one of the caller's records", i)
		}
		if a != built.AttackRecordAt(i) {
			t.Fatalf("AttackRecordAt(%d) on the NewStore store is not the caller's record", i)
		}
	}
}
