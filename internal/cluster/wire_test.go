package cluster

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"reflect"
	"strings"
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
		// v1 sent whole records (bot IPs, target geolocation), v2 every
		// day of a snapshot's daily series, and v3 every record to every
		// shard (ticks for the ones it does not own) and the whole-feed
		// statistics back in each snapshot; v4 peers refuse all three at
		// the header.
		{"version 1", append(append([]byte{}, valid[:4]...), append([]byte{1}, valid[5:]...)...), ErrBadVersion},
		{"version 2", append(append([]byte{}, valid[:4]...), append([]byte{2}, valid[5:]...)...), ErrBadVersion},
		{"version 3", append(append([]byte{}, valid[:4]...), append([]byte{3}, valid[5:]...)...), ErrBadVersion},
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

// keyOf is what a shard decodes from a: the attack's key — id, botnet,
// family, category, target, start, end — with no bot IPs and zero geo.
func keyOf(a *dataset.Attack) *dataset.Attack {
	return &dataset.Attack{
		ID: a.ID, BotnetID: a.BotnetID, Family: a.Family, Category: a.Category,
		TargetIP: a.TargetIP, Start: a.Start, End: a.End,
	}
}

func TestIngestCodecRoundTrip(t *testing.T) {
	start := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
	batch := ingestBatch{
		Covered: 3,
		Horizon: start.Add(2 * time.Minute),
		Entries: []IngestEntry{{Seq: 2, Record: testAttack(6, "198.51.100.9", start.Add(time.Minute))}},
	}
	payload := encodeMsg(wireIngest, &batch)

	got, err := decodeMsg(wireIngest, payload)
	if err != nil {
		t.Fatal(err)
	}
	// The record arrives as its key projection: nil BotIPs, zero geo.
	want := batch
	want.Entries = []IngestEntry{{Seq: 2, Record: keyOf(batch.Entries[0].Record)}}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	rejectsMalformed(t, "ingest", wireIngest, payload)

	// BSCW refuses the zero-address tag for a record's target, the one
	// address the key carries.
	a := testAttack(8, "198.51.100.9", start)
	a.TargetIP = netip.Addr{}
	bad := ingestBatch{Covered: 1, Horizon: start, Entries: []IngestEntry{{Seq: 1, Record: a}}}
	if _, err := decodeMsg(wireIngest, encodeMsg(wireIngest, &bad)); !errors.Is(err, ErrTruncated) {
		t.Errorf("zero target address: err = %v, want ErrTruncated", err)
	}

	// A chunk fanned out to three shards: every payload covers the whole
	// chunk to its horizon, and together they carry each of its records
	// once, to its owner, at its place in the stream — not shards × records.
	f := NewFrontend(0, 0)
	ids := []int{0, 1, 2}
	for _, id := range ids {
		f.ring.Add(id)
	}
	f.fanned.Store(100)
	chunk := make([]*dataset.Attack, ingestChunk)
	for i := range chunk {
		chunk[i] = ownTarget(uint64(i+1), start.Add(time.Duration(i)*time.Second))
	}
	f.encodeChunk(ids, chunk)
	carried := 0
	for si, id := range ids {
		got, err := decodeMsg(wireIngest, f.payloads[si])
		if err != nil || got.Covered != ingestChunk || !got.Horizon.Equal(chunk[ingestChunk-1].Start) {
			t.Fatalf("shard %d: payload covers %d records to %v (%v)", id, got.Covered, got.Horizon, err)
		}
		for _, e := range got.Entries {
			if i := int(e.Seq) - 101; i < 0 || i >= ingestChunk || e.Record.ID != chunk[i].ID || f.ring.Owner(e.Record.TargetIP) != id {
				t.Fatalf("shard %d was sent record %d as seq %d", id, e.Record.ID, e.Seq)
			}
		}
		carried += len(got.Entries)
	}
	if carried != ingestChunk {
		t.Errorf("the payloads carry %d records for a chunk of %d", carried, ingestChunk)
	}
}

// TestIngestCountCapped: ingestChunk entries decode; a payload declaring
// one more — which the frontend never sends — is refused by its count,
// before anything is made.
func TestIngestCountCapped(t *testing.T) {
	start := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
	entries := make([]IngestEntry, ingestChunk+1)
	for i := range entries {
		entries[i] = IngestEntry{Seq: uint64(i + 1), Record: ownTarget(uint64(i+1), start)}
	}
	full := ingestBatch{Covered: ingestChunk, Horizon: start, Entries: entries[:ingestChunk]}
	if got, err := decodeMsg(wireIngest, encodeMsg(wireIngest, &full)); err != nil || len(got.Entries) != ingestChunk {
		t.Fatalf("%d entries: decoded %d, %v", ingestChunk, len(got.Entries), err)
	}
	forged := encodeMsg(wireIngest, &ingestBatch{Covered: ingestChunk + 1, Horizon: start, Entries: entries})
	if _, err := decodeMsg(wireIngest, forged); !errors.Is(err, ErrTruncated) {
		t.Errorf("%d entries: err = %v, want ErrTruncated", len(entries), err)
	}
	if n := testing.AllocsPerRun(10, func() {
		var got ingestBatch
		c := binenc.Decoder(forged)
		wireIngest(&c, &got)
	}); n != 0 {
		t.Errorf("%d entries: decode allocates %.0f objects, want 0", len(entries), n)
	}
}

// TestShardRefusesInvalidKey sends raw ingest frames whose one record
// decodes but fails ValidateKey, or that carry more records than they
// cover. Each is answered with a flagError ack naming the fault, and
// nothing is applied.
func TestShardRefusesInvalidKey(t *testing.T) {
	s := NewShard(0, 4)
	roundTrip := pipeShard(t, s)
	send := func(reqID uint32, covered uint64, a *dataset.Attack) Frame {
		t.Helper()
		batch := ingestBatch{Covered: covered, Horizon: a.Start, Entries: []IngestEntry{{Seq: uint64(reqID), Record: a}}}
		return roundTrip(Frame{Type: msgIngest, ReqID: reqID, Payload: encodeMsg(wireIngest, &batch)})
	}

	start := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
	if resp := send(1, 1, testAttack(1, "198.51.100.9", start)); resp.Flags != 0 {
		t.Fatalf("valid record: ack %+v (%s)", resp, resp.Payload)
	}
	for i, tc := range []struct {
		name, want string
		covered    uint64
		mutate     func(*dataset.Attack)
	}{
		{"zero botnet id", "zero botnet_id", 1, func(a *dataset.Attack) { a.BotnetID = 0 }},
		{"end before start", "ends", 1, func(a *dataset.Attack) { a.End = a.Start.Add(-time.Second) }},
		{"covers none", "covering 0 records carries 1", 0, func(*dataset.Attack) {}},
		{"covers past a chunk", "covering 257 records", ingestChunk + 1, func(*dataset.Attack) {}},
	} {
		a := testAttack(uint64(i+2), "198.51.100.9", start.Add(time.Minute))
		tc.mutate(a)
		resp := send(uint32(i+2), tc.covered, a)
		if resp.Type != msgIngestAck || resp.Flags != flagError || !strings.Contains(string(resp.Payload), tc.want) {
			t.Errorf("%s: ack %+v (%q), want an error ack naming %q", tc.name, resp, resp.Payload, tc.want)
		}
		if got := s.Applied(); got != 1 {
			t.Errorf("%s: Applied() = %d, want 1", tc.name, got)
		}
	}
}

// discardConn is a connection whose writes all succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestWriteFrameReusesBuffer: once a session's write buffer has grown to a
// frame's size, writing another frame allocates nothing.
func TestWriteFrameReusesBuffer(t *testing.T) {
	c := &shardConn{conn: discardConn{}}
	f := &Frame{Type: msgSnapResp, ReqID: 7, Payload: make([]byte, 4096)}
	if n := testing.AllocsPerRun(100, func() { _ = c.writeFrame(f) }); n != 0 {
		t.Errorf("writeFrame allocates %.1f objects per frame, want 0", n)
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
