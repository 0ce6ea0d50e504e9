package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// TestSnapshotLazyRecords pins the tentpole property of the lazy load
// path: a snapshot-loaded store answers every column-native consumer —
// counts, summary, families, targets, time bounds, the dense bot index,
// and cursor reads — without ever materializing the record view, and the
// first record-face call flips it over with identical content.
func TestSnapshotLazyRecords(t *testing.T) {
	s := snapFixtureStore(t)
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.RecordsMaterialized() {
		t.Fatal("decode materialized the record view")
	}
	if !s.RecordsMaterialized() {
		t.Fatal("record-built store reports unmaterialized records")
	}

	// Column-native surface: none of these may touch the record face.
	if got.NumAttacks() != s.NumAttacks() || got.NumBots() != s.NumBots() ||
		got.NumBotnets() != s.NumBotnets() || got.NumTargets() != s.NumTargets() {
		t.Fatal("lazy counts differ from the record-built store")
	}
	if got.Summary() != s.Summary() {
		t.Fatalf("lazy summary differs:\n got %+v\nwant %+v", got.Summary(), s.Summary())
	}
	if len(got.Families()) != len(s.Families()) {
		t.Fatal("lazy family list differs")
	}
	gf, gl, _ := got.TimeBounds()
	wf, wl, _ := s.TimeBounds()
	if !gf.Equal(wf) || !gl.Equal(wl) {
		t.Fatal("lazy time bounds differ")
	}
	ix := got.BotDense()
	if ix.NumIDs() != s.BotDense().NumIDs() {
		t.Fatal("lazy dense index differs")
	}
	want := s.Attacks()
	for i, n := 0, got.AttackRows(); i < n; i++ {
		v, w := got.AttackAt(i), want[i]
		if v.ID() != w.ID || v.BotnetID() != w.BotnetID || v.Family() != w.Family ||
			v.Category() != w.Category || v.TargetIP() != w.TargetIP ||
			!v.Start().Equal(w.Start) || !v.End().Equal(w.End) ||
			v.Magnitude() != w.Magnitude() ||
			v.TargetASN() != w.TargetASN || v.TargetCountry() != w.TargetCountry ||
			v.TargetCity() != w.TargetCity || v.TargetOrg() != w.TargetOrg ||
			v.TargetLat() != w.TargetLat || v.TargetLon() != w.TargetLon {
			t.Fatalf("cursor row %d differs from record %+v", i, w)
		}
		if len(ix.RefsRow(i)) != len(w.BotIPs) {
			t.Fatalf("cursor row %d ref span length differs", i)
		}
	}
	if got.RecordsMaterialized() {
		t.Fatal("column-native reads materialized the record view")
	}

	// First record-face touch: identical content, flag flips.
	if !bytes.Equal(csvBytes(t, s), csvBytes(t, got)) {
		t.Fatal("materialized records differ from the original store")
	}
	if !got.RecordsMaterialized() {
		t.Fatal("Attacks() did not materialize the record view")
	}
}

// TestAttackRecordAtMatchesRecords pins that the row builder used by the
// chain/collaboration detectors builds records identical to the
// materialized arena — without itself triggering materialization, and
// without keeping what it built.
func TestAttackRecordAtMatchesRecords(t *testing.T) {
	s := snapFixtureStore(t)
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := s.Attacks()
	for i := range want {
		a, w := got.AttackRecordAt(i), want[i]
		if a.ID != w.ID || a.BotnetID != w.BotnetID || a.Family != w.Family ||
			a.Category != w.Category || a.TargetIP != w.TargetIP ||
			!a.Start.Equal(w.Start) || !a.End.Equal(w.End) ||
			a.TargetASN != w.TargetASN || a.TargetCountry != w.TargetCountry ||
			a.TargetCity != w.TargetCity || a.TargetOrg != w.TargetOrg ||
			a.TargetLat != w.TargetLat || a.TargetLon != w.TargetLon {
			t.Fatalf("ephemeral record %d differs: got %+v, want %+v", i, a, w)
		}
		if len(a.BotIPs) != len(w.BotIPs) {
			t.Fatalf("record %d has %d bot IPs, want %d", i, len(a.BotIPs), len(w.BotIPs))
		}
		for j := range a.BotIPs {
			if a.BotIPs[j] != w.BotIPs[j] {
				t.Fatalf("record %d bot ip %d differs", i, j)
			}
		}
	}
	if got.RecordsMaterialized() {
		t.Fatal("AttackRecordAt materialized the record view")
	}
	if got.AttackRecordAt(0) == got.AttackRecordAt(0) {
		t.Fatal("AttackRecordAt returned one record twice before materialization: it memoized the row")
	}
	// After materialization the builder must return the shared records.
	_ = got.Attacks()
	for i := range want {
		if got.AttackRecordAt(i) != got.Attacks()[i] {
			t.Fatalf("post-materialization AttackRecordAt(%d) is not the shared record", i)
		}
	}
}

// TestSnapshotConcurrentMaterialize hammers first-touch of the lazy
// record view from many goroutines under -race: every reader must see a
// fully built, identical record arena regardless of who wins the build.
func TestSnapshotConcurrentMaterialize(t *testing.T) {
	s := snapFixtureStore(t)
	data := EncodeSnapshot(s)
	want := csvBytes(t, s)
	for round := 0; round < 10; round++ {
		got, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 64)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 4 {
				case 0:
					if len(got.Attacks()) != s.NumAttacks() {
						errs <- "short attack list"
					}
				case 1:
					for _, f := range got.Families() {
						for _, row := range got.RowsByFamily(f) {
							if got.AttackRecordAt(int(row)).Family != f {
								errs <- "family bucket row built with another family"
							}
						}
					}
				case 2:
					for i := 0; i < got.AttackRows(); i++ {
						if got.AttackRecordAt(i) == nil {
							errs <- "nil record"
						}
					}
				case 3:
					ix := got.BotDense()
					for id := int32(0); id < int32(ix.NumIDs()); id++ {
						if b, ok := ix.Bot(id); ok != ix.Resolved(id) || (ok && b.IP() != ix.IP(id)) {
							errs <- "dense id disagrees with its Botlist row"
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatal(msg)
		}
		if !bytes.Equal(want, csvBytes(t, got)) {
			t.Fatalf("round %d: concurrent materialization corrupted records", round)
		}
	}
}

// TestReadSnapshotMmapInfo pins the load-path provenance and the lazy
// contract across every load path in one table: a regular file takes the
// mmap path (where the platform supports it), BOTSCOPE_NO_MMAP forces the
// read-into-the-heap fallback, a non-file reader never maps — and on all three
// the store arrives with no record arena, stays column-native until the
// first record-face touch, and produces identical records after it.
func TestReadSnapshotMmapInfo(t *testing.T) {
	s := snapFixtureStore(t)
	want := csvBytes(t, s)
	path := filepath.Join(t.TempDir(), "fixture.bscs")
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	mmapSupported := false
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "illumos":
		mmapSupported = true
	}

	fromFile := func(t *testing.T) *Store {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		got, err := ReadSnapshot(f)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return got
	}

	cases := []struct {
		name       string
		noMmapEnv  bool
		load       func(t *testing.T) *Store
		wantMapped bool
	}{
		{name: "file", load: fromFile, wantMapped: mmapSupported},
		{name: "no-mmap-env", noMmapEnv: true, load: fromFile, wantMapped: false},
		{name: "non-file-reader", wantMapped: false,
			load: func(t *testing.T) *Store {
				got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				return got
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.noMmapEnv {
				t.Setenv("BOTSCOPE_NO_MMAP", "1")
			}
			got := tc.load(t)
			info := got.SnapshotInfo()
			if info.Version != snapVersion || info.Bytes != int64(buf.Len()) {
				t.Fatalf("info = %+v, want version %d over %d bytes", info, snapVersion, buf.Len())
			}
			if info.Mapped != tc.wantMapped {
				t.Fatalf("info.Mapped = %t, want %t", info.Mapped, tc.wantMapped)
			}
			if got.RecordsMaterialized() {
				t.Fatal("store arrived with the record arena already built")
			}
			// Column-native reads must not flip the lazy record view.
			if got.NumAttacks() != s.NumAttacks() {
				t.Fatalf("NumAttacks = %d, want %d", got.NumAttacks(), s.NumAttacks())
			}
			for i, n := 0, got.AttackRows(); i < n; i++ {
				_ = got.AttackAt(i).Family()
			}
			if got.RecordsMaterialized() {
				t.Fatal("column-native reads materialized the record view")
			}
			// First record-face touch: flag flips, content identical.
			if !bytes.Equal(want, csvBytes(t, got)) {
				t.Fatalf("%s store differs from the record-built store", tc.name)
			}
			if !got.RecordsMaterialized() {
				t.Fatal("record-face touch did not materialize the record view")
			}
		})
	}
}
