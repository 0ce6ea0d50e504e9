package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"botscope/internal/binenc"
)

// FuzzDecodeWire throws arbitrary bytes at the frame parser and, for
// frames that parse, at the payload walk behind each message type. The
// invariants: never panic, never allocate unboundedly, any frame that
// decodes re-encodes into bytes that decode to the same frame, and any
// payload that decodes reaches a fixed point in one step (fixedPoint).
func FuzzDecodeWire(f *testing.F) {
	f.Add(AppendFrame(nil, &Frame{Type: msgHello, ReqID: 1}))
	f.Add(AppendFrame(nil, &Frame{Type: msgPing, ReqID: 2}))
	f.Add([]byte("BSCW\x04"))
	f.Add([]byte("XXXX\x04\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00"))

	// One seed per payload kind: the golden's, so the fuzzer starts from
	// every field of every message.
	golden := readGolden(f)
	for _, seed := range []struct {
		name string
		kind FrameKind
	}{{"ingest", msgIngest}, {"ingestAck", msgIngestAck}, {"helloAck", msgHelloAck}, {"snapshot", msgSnapResp}, {"snapReq", msgSnap}} {
		f.Add(AppendFrame(nil, &Frame{Type: seed.kind, ReqID: uint32(seed.kind), Payload: golden[seed.name]}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		re := AppendFrame(nil, &fr)
		fr2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if fr.Type != fr2.Type || fr.Flags != fr2.Flags || fr.ReqID != fr2.ReqID ||
			!reflect.DeepEqual(fr.Payload, fr2.Payload) {
			t.Fatalf("frame round trip: %+v != %+v", fr, fr2)
		}

		switch fr.Type {
		case msgIngest:
			fixedPoint(t, "ingest", wireIngest, fr.Payload)
		case msgSnap:
			fixedPoint(t, "snapReq", wireSnapReq, fr.Payload)
		case msgSnapResp:
			fixedPoint(t, "snapshot", wireSnapshot, fr.Payload)
		case msgHelloAck:
			fixedPoint(t, "helloAck", wireHelloAck, fr.Payload)
		case msgIngestAck:
			fixedPoint(t, "ingestAck", wireIngestAck, fr.Payload)
		}
	})
}

// fixedPoint requires encode∘decode to settle after one step on any
// payload that decodes at all: the re-encoding decodes, and encoding that
// decode yields the re-encoding again. The comparison is on bytes, so a NaN
// float or a non-minimal varint in the fuzzer's input does not matter.
func fixedPoint[T any](t *testing.T, name string, wire func(*binenc.Codec, *T), payload []byte) {
	v, err := decodeMsg(wire, payload)
	if err != nil {
		return
	}
	once := encodeMsg(wire, &v)
	v2, err := decodeMsg(wire, once)
	if err != nil {
		t.Fatalf("%s: re-encoding does not decode: %v", name, err)
	}
	if twice := encodeMsg(wire, &v2); !bytes.Equal(once, twice) {
		t.Fatalf("%s: encode(decode(x)) is not a fixed point:\n once  %x\n twice %x", name, once, twice)
	}
}
