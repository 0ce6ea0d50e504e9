package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"botscope/internal/binenc"
	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/stream"
)

// goldenSnapshot is a shard's answer after five attacks: two families on
// three targets across two days, one collaboration window closed (ids 1-2,
// inter-family) and one still open at snapshot time (ids 4-5), sent to a
// session that holds both days — so only the second day crosses, as
// DaysFrom 1, and the daily headline never does.
func goldenSnapshot(t testing.TB) ShardSnapshot {
	t.Helper()
	t0 := time.Date(2012, 8, 29, 23, 59, 30, 0, time.UTC)
	mk := func(id uint64, fam dataset.Family, cat dataset.Category, target string, start time.Time, dur time.Duration) *dataset.Attack {
		a := testAttack(id, target, start)
		a.BotnetID, a.Family, a.Category, a.End = dataset.BotnetID(id), fam, cat, start.Add(dur)
		return a
	}
	part := stream.NewPartition()
	for i, a := range []*dataset.Attack{
		mk(1, dataset.Dirtjumper, dataset.CategoryHTTP, "192.0.2.1", t0, time.Hour),
		mk(2, dataset.Pandora, dataset.CategoryHTTP, "192.0.2.1", t0.Add(10*time.Second), 65*time.Minute),
		mk(3, dataset.Dirtjumper, dataset.CategoryUDP, "198.51.100.7", t0.Add(2*time.Minute), 30*time.Minute),
		mk(4, dataset.Pandora, dataset.CategorySYN, "2001:db8::5", t0.Add(26*time.Hour), 20*time.Minute),
		mk(5, dataset.Pandora, dataset.CategorySYN, "2001:db8::5", t0.Add(26*time.Hour+5*time.Second), 25*time.Minute),
	} {
		if err := part.Ingest(a, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		part.Advance(1, a.Start)
	}
	s := ShardSnapshot{ShardID: 3, Applied: 5, DaysFrom: 1, Snap: part.Snapshot()}
	s.Snap.Daily = core.DailyStats{Days: s.Snap.Daily.Days[1:]}
	return s
}

// goldenIngest is one chunk of four records as the shard that owns two of
// them receives it: the chunk's length and horizon, and its records on an
// IPv4 and an IPv6 target as keys, as a shard decodes them.
func goldenIngest() ingestBatch {
	start := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
	rec := func(seq, id uint64, target string, at time.Time) IngestEntry {
		return IngestEntry{Seq: seq, Record: keyOf(testAttack(id, target, at))}
	}
	return ingestBatch{
		Covered: 4,
		Horizon: start.Add(3 * time.Minute),
		Entries: []IngestEntry{
			rec(2, 6, "198.51.100.9", start.Add(time.Minute)),
			rec(3, 7, "2001:db8::99", start.Add(2*time.Minute)),
		},
	}
}

var (
	goldenHello   = helloAck{ShardID: 2, Applied: 1 << 40}
	goldenAck     = ingestAck{Applied: 12345}
	goldenSnapReq = snapReq{Cursor: 149}
)

// goldenPath pins the BSCW v4 payload bytes, one "name hex" line a message.
// Its helloAck and ingestAck lines are v1's byte for byte (v1's were
// written by the hand-paired encoders this package had before the payload
// walks), and its snapReq line is v3's; v2 moved the ingest line, whose
// records became keys; v3 moved the snapshot line, whose daily series
// became the rows past a cursor, and added snapReq; v4 moved both again:
// an ingest frame carries only the receiving shard's records plus the
// chunk's length and horizon, and a snapshot only the per-target half. A
// walk that moves a byte fails here: the fix is the walk, or a wireVersion
// bump with a new file — never an edit to this one.
const goldenPath = "testdata/bscw_v4.golden"

// readGolden returns the pinned payloads by line name.
func readGolden(t testing.TB) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, h, _ := strings.Cut(line, " ")
		if out[name], err = hex.DecodeString(h); err != nil {
			t.Fatalf("%s: line %q: %v", goldenPath, name, err)
		}
	}
	return out
}

// checkGolden holds one message to its pinned bytes both ways: the value
// encodes to exactly the golden line, and the golden line decodes to
// exactly the value.
func checkGolden[T any](t *testing.T, golden map[string][]byte, name string, wire func(*binenc.Codec, *T), v *T) {
	t.Helper()
	want, ok := golden[name]
	if !ok {
		t.Fatalf("%s has no %q line", goldenPath, name)
	}
	if got := encodeMsg(wire, v); !bytes.Equal(got, want) {
		t.Errorf("%s: encoded bytes moved:\n got %x\nwant %x", name, got, want)
	}
	got, err := decodeMsg(wire, want)
	if err != nil {
		t.Fatalf("%s: golden does not decode: %v", name, err)
	}
	if !reflect.DeepEqual(got, *v) {
		t.Errorf("%s: golden decodes to\n got %+v\nwant %+v", name, got, *v)
	}
}

func TestWireGolden(t *testing.T) {
	golden := readGolden(t)
	snap, batch := goldenSnapshot(t), goldenIngest()
	checkGolden(t, golden, "snapshot", wireSnapshot, &snap)
	checkGolden(t, golden, "ingest", wireIngest, &batch)
	checkGolden(t, golden, "helloAck", wireHelloAck, &goldenHello)
	checkGolden(t, golden, "ingestAck", wireIngestAck, &goldenAck)
	checkGolden(t, golden, "snapReq", wireSnapReq, &goldenSnapReq)

	// The snapshot payload ends where its message does, and its one bool —
	// the open candidate's flag, four bytes from the end, ahead of three
	// one-byte counts — is 0 or 1.
	payload := golden["snapshot"]
	rejectsMalformed(t, "snapshot", wireSnapshot, payload)
	open := len(payload) - 4
	if payload[open] != 1 {
		t.Fatalf("snapshot golden: byte %d = %d, want the open flag", open, payload[open])
	}
	bad := append([]byte{}, payload...)
	bad[open] = 2
	if _, err := decodeMsg(wireSnapshot, bad); !errors.Is(err, ErrTruncated) {
		t.Errorf("bool byte 2: err = %v, want ErrTruncated", err)
	}
}
