// Package binenc is the primitive codec behind BSCW, the cluster wire
// protocol (internal/cluster): unsigned varints everywhere, zigzag varints
// for signed values, IEEE-754 bit patterns for floats (bit-exact round
// trips), length-prefixed strings, times as UTC unix-nanoseconds, tagged
// 0/4/16-byte addresses, and collection counts that are sanity-checked
// against the bytes remaining so a corrupt length cannot force an
// arbitrary allocation.
//
// There is one Codec, and it goes both ways: every primitive takes a
// pointer to the field and either appends it or fills it, by the mode the
// Codec was made in. A message is therefore written once, as a walk over
// its fields, and its encoder and decoder cannot disagree about order or
// width. Direction is this package's private business; a walk never asks.
// The protocol keeps only what is its own: framing, versioning, and how a
// malformed payload is reported. (The BSCS snapshot is fixed-width columns
// viewed in place and shares nothing with it but the address tag values.)
package binenc

import (
	"encoding/binary"
	"errors"
	"math"
	"net/netip"
	"slices"
	"time"
)

// ErrShort is the one error a Codec sets by itself: the buffer ended, or
// held a malformed primitive, before the value being read did — or, at
// Finish, went on after the message had ended.
var ErrShort = errors.New("binenc: short buffer")

// Codec carries one message in one direction. Encoding, Buf is the message
// so far (the caller owns it and may reuse it across messages) and Err
// stays nil. Decoding, Buf is the bytes not yet read and Err is sticky: a
// walk reads linearly and checks once at the end. After the first failure
// every read leaves its field alone and Buf stops moving, so len(Buf)
// still locates where decoding gave up. A caller may set Err to an error
// of its own to stop a decode the same way.
type Codec struct {
	Buf []byte
	Err error
	dec bool
}

// Encoder returns a Codec that appends to buf.
func Encoder(buf []byte) Codec { return Codec{Buf: buf} }

// Decoder returns a Codec that reads payload.
func Decoder(payload []byte) Codec { return Codec{Buf: payload, dec: true} }

// Fail stops a decode with ErrShort unless it has already stopped.
func (c *Codec) Fail() {
	if c.Err == nil {
		c.Err = ErrShort
	}
}

// Finish reports how the message ended. A decode that stopped early, or
// that completed with bytes to spare, fails: a payload ends where its
// message does.
func (c *Codec) Finish() error {
	if c.dec && len(c.Buf) != 0 {
		c.Fail()
	}
	return c.Err
}

// take returns the next n bytes of a decode, or nil after failing it.
func (c *Codec) take(n int) []byte {
	if c.Err != nil || len(c.Buf) < n {
		c.Fail()
		return nil
	}
	b := c.Buf[:n]
	c.Buf = c.Buf[n:]
	return b
}

func (c *Codec) readUvarint() uint64 {
	if c.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.Buf)
	if n <= 0 {
		c.Fail()
		return 0
	}
	c.Buf = c.Buf[n:]
	return v
}

// Uint carries an unsigned value as a uvarint.
func Uint[T ~uint64 | ~uint32](c *Codec, p *T) {
	if !c.dec {
		c.Buf = binary.AppendUvarint(c.Buf, uint64(*p))
	} else if v := c.readUvarint(); c.Err == nil {
		*p = T(v)
	}
}

// Int carries a signed value as a zigzag varint.
func Int[T ~int | ~int64](c *Codec, p *T) {
	if !c.dec {
		c.Buf = binary.AppendVarint(c.Buf, int64(*p))
		return
	}
	if c.Err != nil {
		return
	}
	v, n := binary.Varint(c.Buf)
	if n <= 0 {
		c.Fail()
		return
	}
	c.Buf = c.Buf[n:]
	*p = T(v)
}

// F64 carries a float as its IEEE-754 bits.
func (c *Codec) F64(p *float64) {
	if !c.dec {
		c.Buf = binary.BigEndian.AppendUint64(c.Buf, math.Float64bits(*p))
	} else if b := c.take(8); b != nil {
		*p = math.Float64frombits(binary.BigEndian.Uint64(b))
	}
}

// Str carries a string behind its uvarint length.
func Str[T ~string](c *Codec, p *T) {
	if !c.dec {
		c.Buf = binary.AppendUvarint(c.Buf, uint64(len(*p)))
		c.Buf = append(c.Buf, *p...)
		return
	}
	n := c.readUvarint()
	if n > uint64(len(c.Buf)) {
		c.Fail()
	}
	if c.Err == nil {
		*p = T(c.take(int(n)))
	}
}

// Bool carries a bool as the byte 0 or 1; a decode refuses any other.
func (c *Codec) Bool(p *bool) {
	if !c.dec {
		var b byte
		if *p {
			b = 1
		}
		c.Buf = append(c.Buf, b)
	} else if b := c.take(1); b != nil {
		if b[0] > 1 {
			c.Fail()
		} else {
			*p = b[0] == 1
		}
	}
}

// Time carries an instant as UTC unix-nanoseconds. The zero time
// round-trips as itself so "never set" survives the trip.
func (c *Codec) Time(p *time.Time) {
	nanos := p.UnixNano()
	Int(c, &nanos)
	if !c.dec || c.Err != nil {
		return
	}
	var zero time.Time
	if nanos == zero.UnixNano() {
		*p = zero
	} else {
		*p = time.Unix(0, nanos).UTC()
	}
}

// Addr carries a netip.Addr as a 1-byte tag (0 = the zero Addr, 4, or 16)
// plus the raw bytes. The 0 tag keeps "no address" distinct from IPv6
// "::", which As16 would silently turn it into.
func (c *Codec) Addr(p *netip.Addr) {
	if !c.dec {
		switch {
		case !p.IsValid():
			c.Buf = append(c.Buf, 0)
		case p.Is4():
			b := p.As4()
			c.Buf = append(append(c.Buf, 4), b[:]...)
		default:
			b := p.As16()
			c.Buf = append(append(c.Buf, 16), b[:]...)
		}
		return
	}
	tag := c.take(1)
	if tag == nil {
		return
	}
	switch tag[0] {
	case 0:
		*p = netip.Addr{}
	case 4:
		if b := c.take(4); b != nil {
			*p = netip.AddrFrom4([4]byte(b))
		}
	case 16:
		if b := c.take(16); b != nil {
			*p = netip.AddrFrom16([16]byte(b))
		}
	default:
		c.Fail()
	}
}

// Host is Addr for a field that names a real host: a decode refuses the
// zero-address tag.
func (c *Codec) Host(p *netip.Addr) {
	c.Addr(p)
	if c.dec && !p.IsValid() {
		c.Fail()
	}
}

// count reads a collection length and sanity-checks it against maxN and
// against the bytes remaining (every element costs at least minBytes
// somewhere later in Buf), so a corrupt count cannot force an arbitrary
// allocation.
func (c *Codec) count(minBytes, maxN int) int {
	n := c.readUvarint()
	if n > uint64(min(len(c.Buf)/max(minBytes, 1), maxN)) {
		c.Fail()
	}
	if c.Err != nil {
		return 0
	}
	return int(n)
}

// Len carries a slice's length, leaving the elements to the walk's own
// loop over *s: encoding writes len(*s); decoding reads a count, refuses
// one the remaining bytes cannot hold at minBytes an element, and makes *s
// that long (empty when refused) for the loop to fill. The slice is
// made whole before its first element is read, so what a hostile count can
// allocate is len(Buf)/minBytes elements: pass the true per-element
// minimum, and bound the payload (cluster.maxPayload).
func Len[T any](c *Codec, s *[]T, minBytes int) {
	LenMax(c, s, minBytes, math.MaxInt)
}

// LenMax is Len for a slice the message declares at most maxN long: a
// decode also refuses a count above maxN, before making anything. An
// encode writes len(*s) as given; keeping to maxN is the sender's part.
//
// A decode into a slice with the capacity reuses its array, zeroed first:
// the walk fills every element as if freshly made, and pointers the old
// elements held are left to whoever else kept them.
func LenMax[T any](c *Codec, s *[]T, minBytes, maxN int) {
	if !c.dec {
		c.Buf = binary.AppendUvarint(c.Buf, uint64(len(*s)))
		return
	}
	n := c.count(minBytes, maxN)
	if n > cap(*s) {
		*s = make([]T, n)
		return
	}
	*s = (*s)[:n]
	clear(*s)
}

// Counts carries a string-keyed count map whole: in sorted-key order out,
// so the encoding is deterministic regardless of map iteration, and into a
// freshly made map in.
func Counts[K ~string](c *Codec, m *map[K]int) {
	if c.dec {
		n := c.count(2, math.MaxInt)
		*m = make(map[K]int, n)
		for ; n > 0 && c.Err == nil; n-- {
			var k K
			var v int
			Str(c, &k)
			Int(c, &v)
			(*m)[k] = v
		}
		return
	}
	keys := make([]K, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	c.Buf = binary.AppendUvarint(c.Buf, uint64(len(keys)))
	for _, k := range keys {
		v := (*m)[k]
		Str(c, &k)
		Int(c, &v)
	}
}
