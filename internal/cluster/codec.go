package cluster

import (
	"time"

	"botscope/internal/binenc"
	"botscope/internal/dataset"
)

// IngestEntry is one element of an msgIngest payload: either an attack's
// key record (the shard owns this attack's target partition) or a
// lightweight (id, start, end) tick (the attack is homed elsewhere; the
// shard folds it into its replicated scalar state only). Entries arrive in
// global stream order; Seq is the record's 1-based position in the global
// stream.
//
// A decoded Record holds the attack's key — ID, BotnetID, Family,
// Category, TargetIP, Start, End — and nothing else: no bot IPs and no
// target geolocation cross the wire (wireAttack), because the shard's
// analyzer reads none of them.
type IngestEntry struct {
	Seq    uint64
	Record *dataset.Attack // nil for a tick
	ID     dataset.DDoSID
	Start  time.Time
	End    time.Time
}

// Tick reports whether the entry is a scalar tick rather than a record.
func (e *IngestEntry) Tick() bool { return e.Record == nil }

const (
	entryTick   byte = 0
	entryRecord byte = 1
)

// A BSCW payload is defined once, as a walk over its fields with a
// binenc.Codec: the same function encodes the message and decodes it, so
// the two ends cannot disagree about field order. Times cross as UTC
// unix-nanoseconds, floats as their IEEE-754 bits, and every string and
// address verbatim, so the far side reconstructs values bit-exactly.

// wireIngest is the msgIngest payload: the entries, in global order, at
// most ingestChunk of them — the frontend never sends more, and a decode
// refuses a larger count before making anything, so one ingest frame costs
// a shard at most ingestChunk entries whatever its length. A tick costs at
// least 5 bytes (kind + 4 varints).
func wireIngest(c *binenc.Codec, entries *[]IngestEntry) {
	binenc.LenMax(c, entries, 5, ingestChunk)
	for i := range *entries {
		e := &(*entries)[i]
		kind := e.wireKind(c)
		binenc.Uint(c, &e.Seq)
		switch kind {
		case entryTick:
			binenc.Uint(c, &e.ID)
			c.Time(&e.Start)
			c.Time(&e.End)
		case entryRecord:
			wireAttack(c, e.Record)
			// A record entry's tick fields mirror its record.
			binenc.Derived(c, &e.ID, e.Record.ID)
			binenc.Derived(c, &e.Start, e.Record.Start)
			binenc.Derived(c, &e.End, e.Record.End)
		default:
			c.Fail()
		}
	}
}

// wireKind carries the entry-kind byte: what e is when the byte is going
// out, what e is to become when it came in — a record entry arrives with a
// Record for the walk to fill.
func (e *IngestEntry) wireKind(c *binenc.Codec) byte {
	kind := entryTick
	if e.Record != nil {
		kind = entryRecord
	}
	c.Byte(&kind)
	if kind == entryRecord && e.Record == nil {
		e.Record = new(dataset.Attack)
	}
	return kind
}

// wireAttack is an attack's key: the seven fields the shard's analyzer
// reads (stream.Analyzer.IngestAt) and checks (dataset.Attack.ValidateKey).
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
// ingest entries it has applied (the frontend uses the latter to spot a
// lagging or freshly reset shard).
type helloAck struct {
	ShardID int
	Applied uint64
}

func wireHelloAck(c *binenc.Codec, h *helloAck) {
	binenc.Int(c, &h.ShardID)
	binenc.Uint(c, &h.Applied)
}

// ingestAck reports how many entries the shard has applied in total after
// this batch.
type ingestAck struct {
	Applied uint64
}

func wireIngestAck(c *binenc.Codec, a *ingestAck) {
	binenc.Uint(c, &a.Applied)
}
