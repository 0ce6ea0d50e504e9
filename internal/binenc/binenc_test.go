package binenc

import (
	"errors"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

type family string

// every holds one field of every primitive kind, the zero address and the
// zero time included.
type every struct {
	U      uint64
	U32    uint32
	I      int
	F      float64
	S      family
	B      bool
	V4, V6 netip.Addr
	None   netip.Addr
	Host   netip.Addr
	At     time.Time
	Never  time.Time
	Flags  []bool
	Counts map[family]int
}

// walk is the message: written once, run both ways.
func (v *every) walk(c *Codec) {
	Uint(c, &v.U)
	Uint(c, &v.U32)
	Int(c, &v.I)
	c.F64(&v.F)
	Str(c, &v.S)
	c.Bool(&v.B)
	c.Addr(&v.V4)
	c.Addr(&v.V6)
	c.Addr(&v.None)
	c.Host(&v.Host)
	c.Time(&v.At)
	c.Time(&v.Never)
	Len(c, &v.Flags, 1)
	for i := range v.Flags {
		c.Bool(&v.Flags[i])
	}
	Counts(c, &v.Counts)
}

func sample() every {
	return every{
		U: 1 << 40, U32: 97, I: -12345, F: math.Copysign(0, -1), S: "dirtjumper", B: true,
		V4: netip.MustParseAddr("198.51.100.9"), V6: netip.MustParseAddr("2001:db8::1"),
		Host:   netip.MustParseAddr("10.0.0.1"),
		At:     time.Date(2012, 8, 29, 23, 59, 30, 7, time.UTC),
		Flags:  []bool{false, true},
		Counts: map[family]int{"pandora": 2, "dirtjumper": 1},
	}
}

func encoded(v every) []byte {
	c := Encoder(nil)
	v.walk(&c)
	return c.Buf
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	buf := encoded(in)
	if again := encoded(in); string(again) != string(buf) {
		t.Error("encoding is not deterministic (map order leaked)")
	}

	var out every
	c := Decoder(buf)
	out.walk(&c)
	if err := c.Finish(); err != nil || len(c.Buf) != 0 {
		t.Fatalf("after full read: err %v, %d bytes left", err, len(c.Buf))
	}
	if math.Float64bits(out.F) != math.Float64bits(in.F) {
		t.Errorf("F64 = %v, want -0 bit-exactly", out.F)
	}
	if !out.Never.IsZero() {
		t.Errorf("zero time came back as %v", out.Never)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

// TestShortBufferIsSticky reads every strict prefix of a valid message:
// each must stop with ErrShort, stay stopped, and leave Buf where it
// stopped.
func TestShortBufferIsSticky(t *testing.T) {
	buf := encoded(sample())
	for cut := 0; cut < len(buf); cut++ {
		var out every
		c := Decoder(buf[:cut])
		out.walk(&c)
		if c.Err != ErrShort {
			t.Fatalf("cut %d: err = %v, want ErrShort", cut, c.Err)
		}
		left := len(c.Buf)
		u, s, a := uint64(7), family("kept"), netip.MustParseAddr("10.9.8.7")
		Uint(&c, &u)
		Str(&c, &s)
		c.Addr(&a)
		if u != 7 || s != "kept" || !a.IsValid() || len(c.Buf) != left {
			t.Fatalf("cut %d: decode moved after failing", cut)
		}
	}
}

func TestMalformed(t *testing.T) {
	// A count larger than the bytes that could hold its elements.
	var pairs []uint64
	c := Decoder([]byte{200, 1, 0, 0})
	if Len(&c, &pairs, 2); pairs != nil || c.Err != ErrShort {
		t.Errorf("oversized count: %d elements, err = %v", len(pairs), c.Err)
	}
	// A count above a declared maximum, with bytes enough behind it.
	c = Decoder([]byte{3, 0, 0, 0})
	if LenMax(&c, &pairs, 1, 2); pairs != nil || c.Err != ErrShort {
		t.Errorf("count over maximum: %d elements, err = %v", len(pairs), c.Err)
	}
	c = Decoder([]byte{2, 0, 0})
	if LenMax(&c, &pairs, 1, 2); len(pairs) != 2 || c.Err != nil {
		t.Errorf("count at maximum: %d elements, err = %v", len(pairs), c.Err)
	}
	// An address tag that is none of 0, 4, 16.
	var a netip.Addr
	c = Decoder([]byte{5, 1, 2, 3, 4, 5})
	if c.Addr(&a); a.IsValid() || c.Err != ErrShort {
		t.Errorf("bad address tag: %v, err = %v", a, c.Err)
	}
	// The zero tag where a host is required.
	c = Decoder([]byte{0})
	if c.Host(&a); c.Err != ErrShort {
		t.Errorf("zero host address: err = %v", c.Err)
	}
	// A bool is the byte 0 or 1.
	b := true
	c = Decoder([]byte{2})
	if c.Bool(&b); c.Err != ErrShort {
		t.Errorf("bool byte 2: b = %v, err = %v", b, c.Err)
	}
	// A message that ends before its buffer does.
	c = Decoder([]byte{1, 0})
	if c.Bool(&b); c.Err != nil || c.Finish() != ErrShort {
		t.Errorf("trailing byte: err = %v", c.Err)
	}
	// A caller's own error stops a decode like ErrShort does.
	u := uint64(7)
	c = Decoder([]byte{1})
	c.Err = errOwn
	if Uint(&c, &u); u != 7 || c.Err != errOwn || len(c.Buf) != 1 {
		t.Errorf("caller-set error not sticky: err = %v", c.Err)
	}
	if c.Fail(); c.Finish() != errOwn {
		t.Errorf("Fail overwrote the first error with %v", c.Err)
	}
}

var errOwn = errors.New("own")
