package cluster

import (
	"time"

	"botscope/internal/binenc"
	"botscope/internal/dataset"
)

// IngestEntry is one record of an msgIngest payload: an attack of the
// receiving shard's target partition, and Seq, its 1-based position in the
// global stream.
//
// A decoded Record holds the attack's key — ID, BotnetID, Family,
// Category, TargetIP, Start, End — and nothing else: no bot IPs and no
// target geolocation cross the wire (wireAttack), because the shard's
// partition reads none of them.
type IngestEntry struct {
	Seq    uint64
	Record *dataset.Attack
}

// ingestBatch is the msgIngest payload: one chunk of the global stream as
// one shard receives it. Covered is the number of records in the chunk,
// Horizon the start of its last, and Entries the shard's own records among
// them, in global order. The other partitions' records reach the shard
// only as that count and that horizon (stream.Partition.Advance).
type ingestBatch struct {
	Covered uint64
	Horizon time.Time
	Entries []IngestEntry
}

// A BSCW payload is defined once, as a walk over its fields with a
// binenc.Codec: the same function encodes the message and decodes it, so
// the two ends cannot disagree about field order. Times cross as UTC
// unix-nanoseconds, floats as their IEEE-754 bits, and every string and
// address verbatim, so the far side reconstructs values bit-exactly.

// wireIngest is the msgIngest payload. It carries at most ingestChunk
// entries — the frontend never sends more, and a decode refuses a larger
// count before making anything, so one ingest frame costs a shard at most
// ingestChunk entries whatever its length. An entry costs at least 12
// bytes (a sequence, the key's four varints and two times, and a 5-byte
// IPv4 target).
func wireIngest(c *binenc.Codec, b *ingestBatch) {
	binenc.Uint(c, &b.Covered)
	c.Time(&b.Horizon)
	binenc.LenMax(c, &b.Entries, 12, ingestChunk)
	for i := range b.Entries {
		e := &b.Entries[i]
		binenc.Uint(c, &e.Seq)
		if e.Record == nil {
			// A decode's: LenMax zeroed the slot, so each record is new and
			// one an open collaboration window kept is never overwritten.
			e.Record = new(dataset.Attack)
		}
		wireAttack(c, e.Record)
	}
}

// wireAttack is an attack's key: the seven fields the shard's partition
// reads and checks (stream.Partition.Ingest, dataset.Attack.ValidateKey).
// The bot IPs and target geolocation stay at the frontend, which validated
// them. The target names a real host (BSCS uses the zero tag for an absent
// controller; BSCW refuses it).
func wireAttack(c *binenc.Codec, a *dataset.Attack) {
	binenc.Uint(c, &a.ID)
	binenc.Uint(c, &a.BotnetID)
	binenc.Str(c, &a.Family)
	binenc.Int(c, &a.Category)
	c.Host(&a.TargetIP)
	c.Time(&a.Start)
	c.Time(&a.End)
}

// helloAck is the shard's session greeting: its identity and how many
// records of the global stream it has covered since it started or last
// left.
type helloAck struct {
	ShardID int
	Applied uint64
}

func wireHelloAck(c *binenc.Codec, h *helloAck) {
	binenc.Int(c, &h.ShardID)
	binenc.Uint(c, &h.Applied)
}

// ingestAck reports how many records of the global stream the shard has
// covered after this batch.
type ingestAck struct {
	Applied uint64
}

func wireIngestAck(c *binenc.Codec, a *ingestAck) {
	binenc.Uint(c, &a.Applied)
}
