package binenc

import (
	"errors"
	"math"
	"net/netip"
	"testing"
)

// writeAll emits one value of every primitive kind, the zero address
// included.
func writeAll(w *Writer) {
	w.Uvarint(1 << 40)
	w.Varint(-12345)
	w.F64(math.Copysign(0, -1))
	w.Str("dirtjumper")
	w.Bool(true)
	w.Addr(netip.MustParseAddr("198.51.100.9"))
	w.Addr(netip.MustParseAddr("2001:db8::1"))
	w.Addr(netip.Addr{})
	w.Uvarint(2) // a count of two one-byte elements
	w.Bool(false)
	w.Bool(true)
}

func TestRoundTrip(t *testing.T) {
	w := &Writer{}
	writeAll(w)
	r := &Reader{Buf: w.Buf}
	if v := r.Uvarint(); v != 1<<40 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -12345 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("F64 = %v, want -0 bit-exactly", v)
	}
	if v := r.Str(); v != "dirtjumper" {
		t.Errorf("Str = %q", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if a := r.Addr(); a != netip.MustParseAddr("198.51.100.9") {
		t.Errorf("Addr = %v", a)
	}
	if a := r.Addr(); a != netip.MustParseAddr("2001:db8::1") {
		t.Errorf("Addr = %v", a)
	}
	if a := r.Addr(); a.IsValid() {
		t.Errorf("zero Addr came back as %v", a)
	}
	if n := r.Count(1); n != 2 {
		t.Errorf("Count = %d", n)
	}
	if r.Bool() || !r.Bool() {
		t.Error("trailing bools differ")
	}
	if r.Err != nil || len(r.Buf) != 0 {
		t.Errorf("after full read: err %v, %d bytes left", r.Err, len(r.Buf))
	}
}

// TestShortBufferIsSticky reads every strict prefix of a valid message:
// each must stop with ErrShort, stay stopped, and leave Buf where it
// stopped.
func TestShortBufferIsSticky(t *testing.T) {
	w := &Writer{}
	writeAll(w)
	for cut := 0; cut < len(w.Buf); cut++ {
		r := &Reader{Buf: w.Buf[:cut]}
		r.Uvarint()
		r.Varint()
		r.F64()
		_ = r.Str()
		r.Bool()
		r.Addr()
		r.Addr()
		r.Addr()
		r.Count(1)
		r.Bool()
		r.Bool()
		if r.Err != ErrShort {
			t.Fatalf("cut %d: err = %v, want ErrShort", cut, r.Err)
		}
		left := len(r.Buf)
		if r.Uvarint() != 0 || r.Str() != "" || r.Addr().IsValid() || len(r.Buf) != left {
			t.Fatalf("cut %d: reader moved after failing", cut)
		}
	}
}

func TestMalformed(t *testing.T) {
	// A count larger than the bytes that could hold its elements.
	r := &Reader{Buf: []byte{200, 1, 0, 0}}
	if n := r.Count(2); n != 0 || r.Err != ErrShort {
		t.Errorf("oversized count: n = %d, err = %v", n, r.Err)
	}
	// An address tag that is none of 0, 4, 16.
	r = &Reader{Buf: []byte{5, 1, 2, 3, 4, 5}}
	if a := r.Addr(); a.IsValid() || r.Err != ErrShort {
		t.Errorf("bad address tag: %v, err = %v", a, r.Err)
	}
	// A caller's own error stops the reader like ErrShort does.
	r = &Reader{Buf: []byte{1}, Err: errOwn}
	if r.Uvarint() != 0 || r.Err != errOwn || len(r.Buf) != 1 {
		t.Errorf("caller-set error not sticky: err = %v", r.Err)
	}
	r.Fail()
	if r.Err != errOwn {
		t.Errorf("Fail overwrote the first error with %v", r.Err)
	}
}

var errOwn = errors.New("own")
