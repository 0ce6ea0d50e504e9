package dataset

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestStoreClose pins the deterministic unmap contract: Close releases a
// mapped store's region immediately (not when a cleanup runs), is
// idempotent, and flips every later snapshot write into ErrStoreClosed.
func TestStoreClose(t *testing.T) {
	s := snapFixtureStore(t)
	path := filepath.Join(t.TempDir(), "fixture.bscs")
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadSnapshot(f)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	switch runtime.GOOS {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "illumos":
		if got.cols.mmap == nil || !got.cols.mmap.mapped() {
			t.Fatal("fixture load did not map the file; the test would prove nothing")
		}
	}

	release, ok := got.Hold()
	if !ok {
		t.Fatal("fresh store refused a hold")
	}
	release()
	if err := got.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, ok := got.Hold(); ok {
		t.Fatal("Hold succeeded after Close")
	}
	if got.cols.mmap != nil && got.cols.mmap.mapped() {
		t.Fatal("Close left the snapshot region mapped")
	}
	if err := got.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := WriteSnapshot(io.Discard, got); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("WriteSnapshot on closed store: err = %v, want ErrStoreClosed", err)
	}
}

// TestStoreCloseUnmapped pins that Close is safe (and still marks the
// store closed) on stores that never owned a mapping.
func TestStoreCloseUnmapped(t *testing.T) {
	s := snapFixtureStore(t)
	if err := s.Close(); err != nil {
		t.Fatalf("close of record-built store: %v", err)
	}
	if err := WriteSnapshot(io.Discard, s); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("WriteSnapshot on closed store: err = %v, want ErrStoreClosed", err)
	}

	heap, err := DecodeSnapshot(EncodeSnapshot(snapFixtureStore(t)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := heap.Close(); err != nil {
		t.Fatalf("close of heap-decoded store: %v", err)
	}
	if _, ok := heap.Hold(); ok {
		t.Fatal("heap-decoded store still grants holds after Close")
	}
}

// TestHoldDelaysClose pins the hold contract: Close does not return (nor
// unmap) while a hold is outstanding, nested holds count separately, and
// a hold asked for once Close has begun reports !ok.
func TestHoldDelaysClose(t *testing.T) {
	s := snapFixtureStore(t)
	outer, ok := s.Hold()
	if !ok {
		t.Fatal("fresh store refused a hold")
	}
	inner, ok := s.Hold()
	if !ok {
		t.Fatal("nested hold refused")
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Close has begun once it refuses new holds.
	for {
		release, ok := s.Hold()
		if !ok {
			break
		}
		release()
		runtime.Gosched()
	}
	inner()
	select {
	case <-closed:
		t.Fatal("Close returned with a hold outstanding")
	case <-time.After(50 * time.Millisecond):
	}
	outer()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the last hold was released")
	}
	if _, ok := s.Hold(); ok {
		t.Fatal("Hold succeeded after Close returned")
	}
}
