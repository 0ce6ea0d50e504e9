package cluster

import (
	"time"

	"botscope/internal/binenc"
	"botscope/internal/dataset"
)

// IngestEntry is one element of an msgIngest payload: either a full attack
// record (the shard owns this attack's target partition) or a lightweight
// (id, start, end) tick (the attack is homed elsewhere; the shard folds it
// into its replicated scalar state only). Entries arrive in global stream
// order; Seq is the record's 1-based position in the global stream.
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

// wireIngest is the msgIngest payload: the entries, in global order. A
// tick costs at least 5 bytes (kind + 4 varints).
func wireIngest(c *binenc.Codec, entries *[]IngestEntry) {
	binenc.Len(c, entries, 5)
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

// wireAttack is one full dataset.Attack, so the shard's analyzer sees
// exactly the record the frontend validated. Every address in a record
// names a real host (BSCS uses the zero tag for an absent controller; BSCW
// refuses it), and every bot IP costs at least 5 bytes.
func wireAttack(c *binenc.Codec, a *dataset.Attack) {
	binenc.Uint(c, &a.ID)
	binenc.Uint(c, &a.BotnetID)
	binenc.Str(c, &a.Family)
	binenc.Int(c, &a.Category)
	c.Host(&a.TargetIP)
	c.Time(&a.Start)
	c.Time(&a.End)
	binenc.Len(c, &a.BotIPs, 5)
	for i := range a.BotIPs {
		c.Host(&a.BotIPs[i])
	}
	binenc.Int(c, &a.TargetASN)
	binenc.Str(c, &a.TargetCountry)
	binenc.Str(c, &a.TargetCity)
	binenc.Str(c, &a.TargetOrg)
	c.F64(&a.TargetLat)
	c.F64(&a.TargetLon)
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
