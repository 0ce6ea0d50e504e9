package dataset_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"botscope/internal/dataset"
	"botscope/internal/synth"
)

// TestSnapshotPathsAgree holds every way of opening one snapshot — the
// mapped view, the heap-buffer view (BOTSCOPE_NO_MMAP), the copying
// decode of DecodeSnapshot, and the copy a misaligned read position
// forces on ReadSnapshot — to the NewStore store it was written from:
// every column and the dense layer cell by cell, then every address
// accessor, since addresses are the one thing built at the accessor.
func TestSnapshotPathsAgree(t *testing.T) {
	built, err := synth.GenerateStore(synth.Config{Seed: 3, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	snap := dataset.EncodeSnapshot(built)
	dir := t.TempDir()
	plain, prefixed := filepath.Join(dir, "plain.bscs"), filepath.Join(dir, "prefixed.bscs")
	if err := os.WriteFile(plain, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prefixed, append([]byte("xyz"), snap...), 0o644); err != nil {
		t.Fatal(err)
	}
	mmapSupported := false
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "illumos":
		mmapSupported = true
	}
	fromFile := func(path string, skip int64) func(t *testing.T) *dataset.Store {
		return func(t *testing.T) *dataset.Store {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Seek(skip, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			s, err := dataset.ReadSnapshot(f)
			if err != nil {
				t.Fatal(err)
			}
			if pos, _ := f.Seek(0, io.SeekCurrent); pos != skip+int64(len(snap)) {
				t.Errorf("ReadSnapshot left the file at %d, want its end (%d)", pos, skip+int64(len(snap)))
			}
			return s
		}
	}
	cases := []struct {
		name       string
		noMmap     bool
		open       func(t *testing.T) *dataset.Store
		wantMapped bool
	}{
		{"mapped view", false, fromFile(plain, 0), mmapSupported},
		{"heap view", true, fromFile(plain, 0), false},
		// The mapping starts three bytes before the snapshot, so no column
		// is aligned: ReadSnapshot copies and lets the mapping go.
		{"misaligned copy", false, fromFile(prefixed, 3), false},
		{"heap view past a prefix", true, fromFile(prefixed, 3), false},
		{"DecodeSnapshot", false, func(t *testing.T) *dataset.Store {
			s, err := dataset.DecodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.noMmap {
				t.Setenv("BOTSCOPE_NO_MMAP", "1")
			}
			got := tc.open(t)
			defer got.Close()
			if info := got.SnapshotInfo(); info.Mapped != tc.wantMapped || info.Bytes != int64(len(snap)) {
				t.Errorf("SnapshotInfo = %+v, want Mapped=%t over %d bytes", info, tc.wantMapped, len(snap))
			}
			if d := dataset.DiffColumns(built, got); d != "" {
				t.Fatal(d)
			}
			if !bytes.Equal(dataset.EncodeSnapshot(got), snap) {
				t.Error("re-encoding differs from the snapshot it was opened from")
			}
			want, have := built.BotDense(), got.BotDense()
			for id := int32(0); id < int32(want.NumIDs()); id++ {
				ip := have.IP(id)
				if ip != want.IP(id) {
					t.Fatalf("BotIndex.IP(%d) = %v, want %v", id, ip, want.IP(id))
				}
				if back, ok := have.ID(ip); !ok || back != id {
					t.Fatalf("BotIndex.ID(%v) = %d, %t; want %d", ip, back, ok, id)
				}
				wb, wok := want.Bot(id)
				hb, hok := have.Bot(id)
				if wok != hok || (wok && (hb.IP() != wb.IP() || hb.IP() != ip)) {
					t.Fatalf("BotIndex.Bot(%d) resolves differently", id)
				}
			}
			for i := 0; i < built.AttackRows(); i++ {
				if w, h := built.AttackAt(i), got.AttackAt(i); w.TargetIP() != h.TargetIP() {
					t.Fatalf("attack row %d targets %v, want %v", i, h.TargetIP(), w.TargetIP())
				}
			}
		})
	}
}
