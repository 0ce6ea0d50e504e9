package cluster

import (
	"reflect"
	"testing"
	"time"

	"botscope/internal/binenc"
)

// FuzzDecodeWire throws arbitrary bytes at the frame parser and, for
// frames that parse, at the payload decoders behind each message type. The
// invariants: never panic, never allocate unboundedly, and any frame that
// decodes re-encodes into bytes that decode to the same frame.
func FuzzDecodeWire(f *testing.F) {
	f.Add(AppendFrame(nil, &Frame{Type: msgHello, ReqID: 1}))
	f.Add(AppendFrame(nil, &Frame{Type: msgPing, ReqID: 2}))
	f.Add([]byte("BSCW\x01"))
	f.Add([]byte("XXXX\x01\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00"))

	{
		w := &binenc.Writer{}
		start := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
		encodeIngest(w, []IngestEntry{
			{Seq: 1, ID: 5, Start: start, End: start.Add(time.Hour)},
			{Seq: 2, Record: testAttack(6, "198.51.100.9", start.Add(time.Minute)),
				ID: 6, Start: start.Add(time.Minute), End: start.Add(91 * time.Minute)},
		})
		f.Add(AppendFrame(nil, &Frame{Type: msgIngest, ReqID: 3, Payload: w.Buf}))
	}
	{
		w := &binenc.Writer{}
		encodeIngestAck(w, ingestAck{Applied: 10000})
		f.Add(AppendFrame(nil, &Frame{Type: msgIngestAck, ReqID: 4, Payload: w.Buf}))
	}
	{
		w := &binenc.Writer{}
		encodeHelloAck(w, helloAck{ShardID: 2, Applied: 7})
		f.Add(AppendFrame(nil, &Frame{Type: msgHelloAck, ReqID: 5, Payload: w.Buf}))
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
			entries, err := decodeIngest(fr.Payload)
			if err != nil {
				return
			}
			// A decoded batch always re-encodes into a decodable payload.
			w := &binenc.Writer{}
			encodeIngest(w, entries)
			if _, err := decodeIngest(w.Buf); err != nil {
				t.Fatalf("re-encoded ingest does not decode: %v", err)
			}
		case msgSnapResp:
			if s, err := decodeSnapshot(fr.Payload); err == nil {
				w := &binenc.Writer{}
				encodeSnapshot(w, &s)
				if _, err := decodeSnapshot(w.Buf); err != nil {
					t.Fatalf("re-encoded snapshot does not decode: %v", err)
				}
			}
		case msgHelloAck:
			_, _ = decodeHelloAck(fr.Payload)
		case msgIngestAck:
			_, _ = decodeIngestAck(fr.Payload)
		}
	})
}
