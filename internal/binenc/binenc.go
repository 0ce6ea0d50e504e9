// Package binenc is the primitive codec behind BSCW, the cluster wire
// protocol (internal/cluster): unsigned varints everywhere, zigzag varints
// for signed values, IEEE-754 bit patterns for floats (bit-exact round
// trips), length-prefixed strings, tagged 0/4/16-byte addresses, and
// collection counts that are sanity-checked against the bytes remaining
// so a corrupt length cannot force an arbitrary allocation. The protocol
// keeps only what is its own: framing, versioning, and how a short buffer
// is reported. (The BSCS snapshot is fixed-width columns viewed in place
// and shares nothing with it but the address tag values.)
package binenc

import (
	"encoding/binary"
	"errors"
	"math"
	"net/netip"
)

// ErrShort is the one error a Reader sets by itself: the buffer ended, or
// held a malformed primitive, before the value being read did.
var ErrShort = errors.New("binenc: short buffer")

// Writer appends primitive values to Buf, which the caller owns and may
// reuse across messages.
type Writer struct {
	Buf []byte
}

//botscope:hotpath
func (w *Writer) Uvarint(v uint64) {
	w.Buf = binary.AppendUvarint(w.Buf, v)
}

//botscope:hotpath
func (w *Writer) Varint(v int64) {
	w.Buf = binary.AppendVarint(w.Buf, v)
}

//botscope:hotpath
func (w *Writer) F64(v float64) {
	w.Buf = binary.BigEndian.AppendUint64(w.Buf, math.Float64bits(v))
}

//botscope:hotpath
func (w *Writer) Str(s string) {
	w.Buf = binary.AppendUvarint(w.Buf, uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

//botscope:hotpath
func (w *Writer) Bool(b bool) {
	if b {
		w.Buf = append(w.Buf, 1)
	} else {
		w.Buf = append(w.Buf, 0)
	}
}

// Addr encodes a netip.Addr as a 1-byte tag (0 = the zero Addr, 4, or
// 16) plus the raw bytes. The 0 tag keeps "no address" distinct from
// IPv6 "::", which As16 would silently turn it into.
func (w *Writer) Addr(a netip.Addr) {
	if !a.IsValid() {
		w.Buf = append(w.Buf, 0)
		return
	}
	if a.Is4() {
		b := a.As4()
		w.Buf = append(w.Buf, 4)
		w.Buf = append(w.Buf, b[:]...)
		return
	}
	b := a.As16()
	w.Buf = append(w.Buf, 16)
	w.Buf = append(w.Buf, b[:]...)
}

// Reader consumes primitives from Buf with a sticky error, so decode
// paths read linearly and check Err once at the end. After the first
// failure every read returns the zero value and Buf stops moving, so
// len(Buf) still locates where decoding gave up. A caller may set Err to
// an error of its own to stop the reader the same way.
type Reader struct {
	Buf []byte
	Err error
}

// Fail stops the reader with ErrShort unless it has already stopped.
func (r *Reader) Fail() {
	if r.Err == nil {
		r.Err = ErrShort
	}
}

func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Buf)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.Buf = r.Buf[n:]
	return v
}

func (r *Reader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.Buf)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.Buf = r.Buf[n:]
	return v
}

func (r *Reader) F64() float64 {
	if r.Err != nil {
		return 0
	}
	if len(r.Buf) < 8 {
		r.Fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.Buf))
	r.Buf = r.Buf[8:]
	return v
}

func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.Err != nil {
		return ""
	}
	if uint64(len(r.Buf)) < n {
		r.Fail()
		return ""
	}
	s := string(r.Buf[:n])
	r.Buf = r.Buf[n:]
	return s
}

func (r *Reader) Bool() bool {
	if r.Err != nil {
		return false
	}
	if len(r.Buf) < 1 {
		r.Fail()
		return false
	}
	b := r.Buf[0]
	r.Buf = r.Buf[1:]
	return b != 0
}

// Addr reads a tagged address; tag 0 yields the zero Addr.
func (r *Reader) Addr() netip.Addr {
	if r.Err != nil {
		return netip.Addr{}
	}
	if len(r.Buf) < 1 {
		r.Fail()
		return netip.Addr{}
	}
	n := int(r.Buf[0])
	r.Buf = r.Buf[1:]
	switch n {
	case 0:
		return netip.Addr{}
	case 4, 16:
	default:
		r.Fail()
		return netip.Addr{}
	}
	if len(r.Buf) < n {
		r.Fail()
		return netip.Addr{}
	}
	var a netip.Addr
	if n == 4 {
		a = netip.AddrFrom4([4]byte(r.Buf[:4]))
	} else {
		a = netip.AddrFrom16([16]byte(r.Buf[:16]))
	}
	r.Buf = r.Buf[n:]
	return a
}

// Count reads a collection length and sanity-checks it against the bytes
// remaining (every element costs at least minBytes somewhere later in
// Buf), so a corrupt count cannot force an arbitrary allocation.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if r.Err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(len(r.Buf)/minBytes) {
		r.Fail()
		return 0
	}
	return int(n)
}
