package cluster

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"botscope/internal/binenc"
	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/stream"
)

// pipeShard runs s's applier and one session's read loop over an
// in-memory connection, and returns a function that sends a frame and
// reads its answer.
func pipeShard(t *testing.T, s *Shard) func(Frame) Frame {
	t.Helper()
	go s.applier()
	t.Cleanup(func() { close(s.work) })
	client, server := netPipe(t)
	go s.readLoop(&shardConn{conn: server})
	return func(req Frame) Frame {
		t.Helper()
		if _, err := client.Write(AppendFrame(nil, &req)); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadFrame(client)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
}

var deltaDay0 = time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)

// ownTarget is attack id's attack on a target of its own, so no two ever
// form a collaboration window and the rest of a snapshot stays the same
// size as days go by.
func ownTarget(id uint64, start time.Time) *dataset.Attack {
	return testAttack(id, netip.AddrFrom4([4]byte{10, byte(id >> 16), byte(id >> 8), byte(id)}).String(), start)
}

// dayAttacks is n attacks an hour apart on each of days [from, to) after
// 1 Aug 2012.
func dayAttacks(from, to, n int) []*dataset.Attack {
	var out []*dataset.Attack
	for d := from; d < to; d++ {
		for i := 0; i < n; i++ {
			out = append(out, ownTarget(uint64(d*n+i+1), deltaDay0.AddDate(0, 0, d).Add(time.Duration(i)*time.Hour)))
		}
	}
	return out
}

// shardSession drives one shard the way a frontend session does: ingest
// frames of owned records, and snapshot requests that carry the held rows'
// cursor and fold the answer into them.
type shardSession struct {
	t     *testing.T
	send  func(Frame) Frame
	seq   uint64
	req   uint32
	days  []core.DailyCount
	bytes int // the last snapshot answer's payload length
}

func (ss *shardSession) ingest(attacks []*dataset.Attack) {
	ss.t.Helper()
	for c := range slices.Chunk(attacks, ingestChunk) {
		batch := ingestBatch{Covered: uint64(len(c)), Horizon: c[len(c)-1].Start, Entries: make([]IngestEntry, len(c))}
		for i, a := range c {
			ss.seq++
			batch.Entries[i] = IngestEntry{Seq: ss.seq, Record: a}
		}
		ss.req++
		if resp := ss.send(Frame{Type: msgIngest, ReqID: ss.req, Payload: encodeMsg(wireIngest, &batch)}); resp.Flags != 0 {
			ss.t.Fatalf("ingest: ack %+v (%s)", resp, resp.Payload)
		}
	}
}

// snapshot asks with the given cursor and returns the decoded answer.
func (ss *shardSession) snapshot(cursor int) ShardSnapshot {
	ss.t.Helper()
	ss.req++
	resp := ss.send(Frame{Type: msgSnap, ReqID: ss.req, Payload: encodeMsg(wireSnapReq, &snapReq{Cursor: cursor})})
	if resp.Type != msgSnapResp || resp.Flags != 0 {
		ss.t.Fatalf("snapshot at cursor %d: %+v (%s)", cursor, resp, resp.Payload)
	}
	s, err := decodeMsg(wireSnapshot, resp.Payload)
	if err != nil {
		ss.t.Fatal(err)
	}
	ss.bytes = len(resp.Payload)
	return s
}

// refresh is one frontend refresh: ask from the held rows' cursor, and
// append the answer's rows from where it starts.
func (ss *shardSession) refresh() ShardSnapshot {
	ss.t.Helper()
	s := ss.snapshot(max(len(ss.days)-1, 0))
	if s.DaysFrom > len(ss.days) {
		ss.t.Fatalf("answer starts at row %d, session holds %d", s.DaysFrom, len(ss.days))
	}
	ss.days = append(ss.days[:s.DaysFrom], s.Snap.Daily.Days...)
	return s
}

// TestSnapDeltaCarriesTheOpenTail: once a session holds a shard's days,
// the answer after one more batch carries at most the last held row and a
// new one, and its size does not grow with the days held — at 30 days and
// at 150 it is the same within a few varint bytes, where the full series
// at 150 days is several times larger.
func TestSnapDeltaCarriesTheOpenTail(t *testing.T) {
	ss := &shardSession{t: t, send: pipeShard(t, NewShard(0, 4))}
	tailAt := func(days int) int {
		t.Helper()
		ss.ingest(dayAttacks(len(ss.days), days, 3))
		ss.refresh()
		if len(ss.days) != days {
			t.Fatalf("session holds %d days, want %d", len(ss.days), days)
		}
		ss.ingest(dayAttacks(days, days+1, 3))
		s := ss.refresh()
		if n := len(s.Snap.Daily.Days); n > 2 || s.DaysFrom != days-1 {
			t.Errorf("after %d days: answer carries %d rows from row %d, want ≤ 2 from %d", days, n, s.DaysFrom, days-1)
		}
		if s.Snap.Daily.Average != 0 || s.Snap.Daily.Max != 0 || s.Snap.Daily.MaxDominantFamily != "" {
			t.Errorf("after %d days: the daily headline crossed the wire: %+v", days, s.Snap.Daily)
		}
		return ss.bytes
	}
	at30 := tailAt(30)
	at150 := tailAt(150)
	if at150-at30 > 16 {
		t.Errorf("tail answer grew from %d bytes at 30 days to %d at 150", at30, at150)
	}
	ss.snapshot(0)
	t.Logf("tail answer %d bytes at 30 days, %d at 150; the whole series at 150 days %d", at30, at150, ss.bytes)
	if full := ss.bytes; full < 4*at150 {
		t.Errorf("the whole series at 150 days is %d bytes, the tail %d: the tail should be a small part", full, at150)
	}
	if want := ss.days; !reflect.DeepEqual(ss.snapshot(0).Snap.Daily.Days, want) {
		t.Error("the rows the session assembled from deltas differ from the shard's whole series")
	}
}

// TestSnapCursorClamped: a cursor past the shard's rows answers from its
// newest row, and a shard with no rows answers with none.
func TestSnapCursorClamped(t *testing.T) {
	ss := &shardSession{t: t, send: pipeShard(t, NewShard(0, 4))}
	if s := ss.snapshot(7); s.DaysFrom != 0 || len(s.Snap.Daily.Days) != 0 {
		t.Errorf("empty shard at cursor 7: rows from %d, %d of them; want from 0, none", s.DaysFrom, len(s.Snap.Daily.Days))
	}
	ss.ingest(dayAttacks(0, 5, 2))
	s := ss.snapshot(1000)
	if s.DaysFrom != 4 || len(s.Snap.Daily.Days) != 1 || !s.Snap.Daily.Days[0].Day.Equal(time.Date(2012, 8, 5, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("cursor 1000 over 5 days: rows from %d, %+v; want the newest row, from 4", s.DaysFrom, s.Snap.Daily.Days)
	}
}

// TestSnapCursorMalformed: a request whose cursor is negative or does not
// decode exactly is refused with an error ack, and the shard goes on
// answering good requests.
func TestSnapCursorMalformed(t *testing.T) {
	send := pipeShard(t, NewShard(0, 4))
	negative := encodeMsg(wireSnapReq, &snapReq{Cursor: -1})
	for i, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"negative", negative, "negative daily cursor -1"},
		{"empty", nil, "truncated"},
		{"cut varint", []byte{0x80}, "truncated"},
		{"trailing byte", []byte{0x02, 0x00}, "truncated"},
	} {
		resp := send(Frame{Type: msgSnap, ReqID: uint32(i + 1), Payload: tc.payload})
		if resp.Type != msgSnapResp || resp.Flags != flagError || !strings.Contains(string(resp.Payload), tc.want) {
			t.Errorf("%s cursor: %+v (%q), want an error ack naming %q", tc.name, resp, resp.Payload, tc.want)
		}
	}
	resp := send(Frame{Type: msgSnap, ReqID: 9, Payload: encodeMsg(wireSnapReq, &snapReq{Cursor: 0})})
	if resp.Flags != 0 {
		t.Fatalf("good cursor after bad ones: %+v (%s)", resp, resp.Payload)
	}
	if _, err := decodeMsg(wireSnapshot, resp.Payload); err != nil {
		t.Fatal(err)
	}
}

// TestRejoinSendsFromRowZero: a new session holds no rows, so its first
// request asks from row 0 and it is sent its shard's whole series. A
// rejoin without a reset is byte-identical to a single process at once; a
// rejoin after a leave starts the shard empty, and the merged Fig 2 is then
// byte-identical to a single analyzer over exactly the records the cluster
// holds — its partition refilling from the rejoin on.
func TestRejoinSendsFromRowZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l, err := StartLocal(ctx, 2, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f := l.Frontend
	session := func() *shardClient {
		f.mu.RLock()
		defer f.mu.RUnlock()
		return f.clients[1]
	}
	ingest := func(attacks []*dataset.Attack) {
		t.Helper()
		var feed bytes.Buffer
		if err := dataset.WriteJSONL(&feed, attacks); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.LiveIngest(ctx, &feed); err != nil {
			t.Fatal(err)
		}
	}
	merged := func(wantDegraded []int) stream.Snapshot {
		t.Helper()
		snap, degraded, err := f.LiveSnapshot(ctx)
		if err != nil || !slices.Equal(degraded, wantDegraded) {
			t.Fatalf("LiveSnapshot: degraded %v, err %v; want %v", degraded, err, wantDegraded)
		}
		return snap
	}
	// rowsOf is Fig 2 over the given attacks, by one analyzer.
	rowsOf := func(attacks []*dataset.Attack) core.DailyStats {
		an := stream.New()
		for _, a := range attacks {
			if err := an.Ingest(a); err != nil {
				t.Fatal(err)
			}
		}
		return an.Snapshot().Daily
	}
	ring := NewRing(0, 1)
	owned := func(attacks []*dataset.Attack, shard int) []*dataset.Attack {
		var out []*dataset.Attack
		for _, a := range attacks {
			if ring.Owner(a.TargetIP) == shard {
				out = append(out, a)
			}
		}
		return out
	}

	first, second := dayAttacks(0, 10, 4), dayAttacks(10, 20, 4)
	ingest(first)
	merged(nil)
	if n := len(session().days); n < 2 {
		t.Fatalf("shard 1's session holds %d days; the test needs several", n)
	}

	// A rejoin alone replaces the session but keeps the shard's state.
	if err := f.ShardJoin(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if n := len(session().days); n != 0 {
		t.Fatalf("a new session holds %d rows before its first answer", n)
	}
	got := merged(nil)
	if want := rowsOf(owned(first, 1)).Days; !reflect.DeepEqual(session().days, want) {
		t.Errorf("the new session was sent %d rows, want shard 1's %d", len(session().days), len(want))
	}
	if want := rowsOf(first); asJSON(t, got.Daily) != asJSON(t, want) {
		t.Errorf("after a rejoin, Fig 2 = %s\nwant %s", asJSON(t, got.Daily), asJSON(t, want))
	}

	// Leave and rejoin: the shard restarts empty and refills from here on.
	if err := f.ShardLeave(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.ShardJoin(ctx, 1); err != nil {
		t.Fatal(err)
	}
	ingest(second)
	got = merged([]int{1})
	if want := rowsOf(owned(second, 1)).Days; !reflect.DeepEqual(session().days, want) {
		t.Errorf("the refilled session holds %d rows, want the %d of shard 1's records since the rejoin", len(session().days), len(want))
	}
	held := append(owned(first, 0), second...)
	if want := rowsOf(held); asJSON(t, got.Daily) != asJSON(t, want) {
		t.Errorf("after leave and rejoin, Fig 2 = %s\nwant %s", asJSON(t, got.Daily), asJSON(t, want))
	}
	if got.Ingested != len(first)+len(second) {
		t.Errorf("Ingested = %d, want %d from the frontend's scalars", got.Ingested, len(first)+len(second))
	}
}

// TestIngestEntriesReused: the shard decodes every ingest frame into one
// entry slice, yet each record gets an Attack of its own — one an open
// collaboration window kept from an earlier frame is never overwritten by
// the next.
func TestIngestEntriesReused(t *testing.T) {
	start := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
	// frame carries n records from id on.
	frame := func(id uint64, n int) []byte {
		b := ingestBatch{Covered: uint64(n)}
		for i := range uint64(n) {
			a := testAttack(id+i, "198.51.100.9", start.Add(time.Duration(id+i)*time.Minute))
			b.Entries = append(b.Entries, IngestEntry{Seq: id + i, Record: a})
			b.Horizon = a.Start
		}
		return encodeMsg(wireIngest, &b)
	}
	var b ingestBatch
	decode := func(payload []byte) {
		t.Helper()
		c := binenc.Decoder(payload)
		wireIngest(&c, &b)
		if err := payloadErr(&c); err != nil {
			t.Fatal(err)
		}
	}
	decode(frame(1, 2))
	first, array := b.Entries[0].Record, &b.Entries[0]
	kept := *first
	decode(frame(3, 1))
	second := b.Entries[0].Record
	if &b.Entries[0] != array {
		t.Error("the second frame did not reuse the entry array")
	}
	if first == second || !reflect.DeepEqual(*first, kept) || second.ID != 3 {
		t.Errorf("records of two frames: %p (now %+v) and %p (%+v); want distinct, the first unchanged", first, *first, second, *second)
	}
}

// BenchmarkFrontendSnapshotAfterIngest budgets what a live_sharded refresh
// costs after an ingest POST: a 2-shard loopback cluster whose sessions
// hold 120 days takes one 8-record batch, then one LiveSnapshot — the
// fan-out, both shards' answers from the held rows' cursor, and the held
// merge. Four ops make a day. Each op's batch is encoded with the timer
// stopped; allocations count the whole process, shards included.
func BenchmarkFrontendSnapshotAfterIngest(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l, err := StartLocal(ctx, 2, 0, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	f := l.Frontend
	var feed bytes.Buffer
	encode := func(attacks []*dataset.Attack) {
		feed.Reset()
		if err := dataset.WriteJSONL(&feed, attacks); err != nil {
			b.Fatal(err)
		}
	}
	encode(dayAttacks(0, 120, 8))
	if _, _, err := f.LiveIngest(ctx, &feed); err != nil {
		b.Fatal(err)
	}
	if _, _, err := f.LiveSnapshot(ctx); err != nil {
		b.Fatal(err)
	}

	batch := make([]*dataset.Attack, 8)
	b.ReportAllocs()
	for op := 0; b.Loop(); op++ {
		b.StopTimer()
		at := deltaDay0.AddDate(0, 0, 120+op/4).Add(time.Duration(op%4) * 6 * time.Hour)
		for j := range batch {
			batch[j] = ownTarget(uint64(1_000_000+8*op+j), at.Add(time.Duration(j)*30*time.Minute))
		}
		encode(batch)
		b.StartTimer()
		if _, _, err := f.LiveIngest(ctx, &feed); err != nil {
			b.Fatal(err)
		}
		if _, _, err := f.LiveSnapshot(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
