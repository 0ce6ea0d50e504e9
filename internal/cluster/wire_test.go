package cluster

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"botscope/internal/binenc"
	"botscope/internal/dataset"
)

// netPipe returns an in-memory connection pair torn down with the test.
func netPipe(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	c, s := net.Pipe()
	t.Cleanup(func() { _ = c.Close(); _ = s.Close() })
	return c, s
}

func TestFrameRoundTrip(t *testing.T) {
	in := Frame{Type: msgIngest, Flags: flagBusy | flagError, ReqID: 0xdeadbeef, Payload: []byte("hello")}
	buf := AppendFrame(nil, &in)
	if len(buf) != headerLen+len(in.Payload) {
		t.Fatalf("encoded length = %d, want %d", len(buf), headerLen+len(in.Payload))
	}

	out, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("ReadFrame = %+v, want %+v", out, in)
	}

	out2, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out2) {
		t.Errorf("DecodeFrame = %+v, want %+v", out2, in)
	}
}

func TestDecodeFrameRejectsMalformedHeaders(t *testing.T) {
	valid := AppendFrame(nil, &Frame{Type: msgPing, ReqID: 7})

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short", valid[:headerLen-1], ErrTruncated},
		{"bad magic", append([]byte("XSCW"), valid[4:]...), ErrBadMagic},
		{"bad version", append(append([]byte{}, valid[:4]...), append([]byte{99}, valid[5:]...)...), ErrBadVersion},
		{"payload past end", func() []byte {
			b := append([]byte{}, valid...)
			b[15] = 10 // declares 10 payload bytes that are not there
			return b
		}(), ErrTruncated},
		{"oversized payload", func() []byte {
			b := append([]byte{}, valid...)
			b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff
			return b
		}(), ErrFrameTooBig},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// encodeMsg and decodeMsg run one payload walk each way, the way the call
// sites in shard.go, client.go and frontend.go do.
func encodeMsg[T any](wire func(*binenc.Codec, *T), v *T) []byte {
	c := binenc.Encoder(nil)
	wire(&c, v)
	return c.Buf
}

func decodeMsg[T any](wire func(*binenc.Codec, *T), payload []byte) (T, error) {
	var v T
	c := binenc.Decoder(payload)
	wire(&c, &v)
	return v, payloadErr(&c)
}

// rejectsMalformed holds one payload walk to the decode contract: every
// strict prefix of a valid payload, and the payload plus one byte, is
// ErrTruncated — never a panic, never a quiet success.
func rejectsMalformed[T any](t *testing.T, name string, wire func(*binenc.Codec, *T), payload []byte) {
	t.Helper()
	for i := 0; i < len(payload); i++ {
		if _, err := decodeMsg(wire, payload[:i]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: truncation at %d bytes: err = %v, want ErrTruncated", name, i, err)
		}
	}
	if _, err := decodeMsg(wire, append(payload[:len(payload):len(payload)], 0)); !errors.Is(err, ErrTruncated) {
		t.Errorf("%s: one trailing byte: err = %v, want ErrTruncated", name, err)
	}
}

func testAttack(id uint64, target string, start time.Time) *dataset.Attack {
	return &dataset.Attack{
		ID:            dataset.DDoSID(id),
		BotnetID:      dataset.BotnetID(id%97 + 1),
		Family:        "dirtjumper",
		Category:      dataset.CategoryHTTP,
		TargetIP:      netip.MustParseAddr(target),
		Start:         start,
		End:           start.Add(90 * time.Minute),
		BotIPs:        []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("2001:db8::1")},
		TargetASN:     64500,
		TargetCountry: "US",
		TargetCity:    "Chicago",
		TargetOrg:     "Example Org",
		TargetLat:     41.88,
		TargetLon:     -87.63,
	}
}

func TestIngestCodecRoundTrip(t *testing.T) {
	start := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
	entries := []IngestEntry{
		{Seq: 1, ID: 5, Start: start, End: start.Add(time.Hour)},
		{Seq: 2, Record: testAttack(6, "198.51.100.9", start.Add(time.Minute)),
			ID: 6, Start: start.Add(time.Minute), End: start.Add(time.Minute + 90*time.Minute)},
		{Seq: 3, ID: 7, Start: start.Add(2 * time.Minute), End: start.Add(2 * time.Minute)},
	}
	payload := encodeMsg(wireIngest, &entries)

	got, err := decodeMsg(wireIngest, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entries, got) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, entries)
	}
	if !got[0].Tick() || got[1].Tick() {
		t.Errorf("tick flags = %v, %v; want true, false", got[0].Tick(), got[1].Tick())
	}

	rejectsMalformed(t, "ingest", wireIngest, payload)

	// Encoding only reads: a record entry whose tick fields disagree with
	// its record keeps them, and arrives mirrored from the record.
	odd := []IngestEntry{{Seq: 9, Record: testAttack(6, "198.51.100.9", start), ID: 77}}
	got, err = decodeMsg(wireIngest, encodeMsg(wireIngest, &odd))
	if err != nil || odd[0].ID != 77 || !odd[0].Start.IsZero() ||
		got[0].ID != 6 || !got[0].Start.Equal(start) || !got[0].End.Equal(odd[0].Record.End) {
		t.Errorf("encode stored, or decode did not mirror: sent %+v, got %+v, %v", odd[0], got, err)
	}

	// An entry is a tick or a record; no third kind decodes.
	bad := append([]byte{}, payload...)
	bad[1] = 2 // the first entry's kind byte follows the one-byte count
	if _, err := decodeMsg(wireIngest, bad); !errors.Is(err, ErrTruncated) {
		t.Errorf("unknown entry kind: err = %v, want ErrTruncated", err)
	}

	// BSCW refuses the zero-address tag wherever a record carries one.
	for name, zero := range map[string]func(a *dataset.Attack){
		"target": func(a *dataset.Attack) { a.TargetIP = netip.Addr{} },
		"bot":    func(a *dataset.Attack) { a.BotIPs[1] = netip.Addr{} },
	} {
		a := testAttack(8, "198.51.100.9", start)
		zero(a)
		batch := []IngestEntry{{Seq: 1, Record: a, ID: a.ID, Start: a.Start, End: a.End}}
		if _, err := decodeMsg(wireIngest, encodeMsg(wireIngest, &batch)); !errors.Is(err, ErrTruncated) {
			t.Errorf("zero %s address: err = %v, want ErrTruncated", name, err)
		}
	}
}

func TestHelloAndIngestAckRoundTrip(t *testing.T) {
	hello := encodeMsg(wireHelloAck, &helloAck{ShardID: 42, Applied: 1 << 40})
	h, err := decodeMsg(wireHelloAck, hello)
	if err != nil || h.ShardID != 42 || h.Applied != 1<<40 {
		t.Errorf("helloAck = %+v, %v", h, err)
	}
	rejectsMalformed(t, "helloAck", wireHelloAck, hello)

	ack := encodeMsg(wireIngestAck, &ingestAck{Applied: 12345})
	a, err := decodeMsg(wireIngestAck, ack)
	if err != nil || a.Applied != 12345 {
		t.Errorf("ingestAck = %+v, %v", a, err)
	}
	rejectsMalformed(t, "ingestAck", wireIngestAck, ack)
}

// TestShardBusyAckWhenQueueFull pins the backpressure signal at the wire
// level: with the work queue full (no applier draining it), stateful
// frames are refused immediately with a busy-flagged ack of the matching
// type, while stateless control frames still answer inline.
func TestShardBusyAckWhenQueueFull(t *testing.T) {
	s := NewShard(3, 1)
	s.work <- shardJob{} // fill the queue; no applier is running

	client, server := netPipe(t)
	go s.readLoop(&shardConn{conn: server})

	roundTrip := func(req Frame) Frame {
		t.Helper()
		if _, err := client.Write(AppendFrame(nil, &req)); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadFrame(client)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ReqID != req.ReqID {
			t.Fatalf("response req id = %d, want %d", resp.ReqID, req.ReqID)
		}
		return resp
	}

	// Hello answers inline even under full queue.
	resp := roundTrip(Frame{Type: msgHello, ReqID: 1})
	if resp.Type != msgHelloAck || resp.Flags != 0 {
		t.Fatalf("hello resp = %+v", resp)
	}
	h, err := decodeMsg(wireHelloAck, resp.Payload)
	if err != nil || h.ShardID != 3 {
		t.Fatalf("hello ack = %+v, %v", h, err)
	}

	// Stateful frames get busy acks of the matching type.
	for _, tc := range []struct{ req, ack FrameKind }{
		{msgIngest, msgIngestAck},
		{msgSnap, msgSnapResp},
		{msgLeave, msgLeaveAck},
	} {
		resp := roundTrip(Frame{Type: tc.req, ReqID: uint32(tc.req)})
		if resp.Type != tc.ack || resp.Flags&flagBusy == 0 {
			t.Errorf("type %d: resp = %+v, want busy %d", tc.req, resp, tc.ack)
		}
	}

	// Ping still answers.
	if resp := roundTrip(Frame{Type: msgPing, ReqID: 9}); resp.Type != msgPong {
		t.Errorf("ping resp = %+v", resp)
	}
}

func TestRateLimiterTokenBucket(t *testing.T) {
	l := NewRateLimiter(1, 2)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("request %d within burst refused", i)
		}
	}
	ok, retry := l.Allow("a")
	if ok {
		t.Fatal("third request within burst allowed")
	}
	if retry <= 0 {
		t.Fatalf("retry hint = %v, want > 0", retry)
	}

	// Other clients are unaffected.
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("independent client refused")
	}

	// A second's worth of refill earns exactly one token back.
	now = now.Add(time.Second)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("refilled request refused")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("over-refilled: second request allowed after 1s at 1 rps")
	}

	// Idling never accrues past the burst.
	now = now.Add(time.Hour)
	allowed := 0
	for i := 0; i < 5; i++ {
		if ok, _ := l.Allow("a"); ok {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("after idle, %d allowed; want burst of 2", allowed)
	}
}

// TestAppendFrameZeroAlloc: framing into a buffer with room allocates
// nothing (DESIGN §5b), so a connection's writer can reuse one buffer.
func TestAppendFrameZeroAlloc(t *testing.T) {
	f := &Frame{Type: msgIngest, ReqID: 7, Payload: make([]byte, 512)}
	buf := make([]byte, 0, headerLen+len(f.Payload))
	if n := testing.AllocsPerRun(100, func() { buf = AppendFrame(buf[:0], f) }); n != 0 {
		t.Errorf("AppendFrame allocates %.1f objects per frame, want 0", n)
	}
}
