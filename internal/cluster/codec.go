package cluster

import (
	"fmt"
	"net/netip"
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

// encodeIngest appends the msgIngest payload for entries to w.
//
//botvet:codec encode ingest
func encodeIngest(w *binenc.Writer, entries []IngestEntry) {
	w.Uvarint(uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		if e.Record == nil {
			w.Buf = append(w.Buf, entryTick)
			w.Uvarint(e.Seq)
			w.Uvarint(uint64(e.ID))
			w.Varint(e.Start.UnixNano())
			w.Varint(e.End.UnixNano())
			continue
		}
		w.Buf = append(w.Buf, entryRecord)
		w.Uvarint(e.Seq)
		encodeAttack(w, e.Record)
	}
}

// decodeIngest parses an msgIngest payload.
//
//botvet:codec decode ingest
func decodeIngest(payload []byte) ([]IngestEntry, error) {
	r := &binenc.Reader{Buf: payload}
	// A tick costs at least 5 bytes (kind + 4 varints).
	n := r.Count(5)
	entries := make([]IngestEntry, 0, n)
	for i := 0; i < n && r.Err == nil; i++ {
		if len(r.Buf) < 1 {
			r.Fail()
			break
		}
		kind := r.Buf[0]
		r.Buf = r.Buf[1:]
		switch kind {
		case entryTick:
			seq := r.Uvarint()
			id := dataset.DDoSID(r.Uvarint())
			start := time.Unix(0, r.Varint()).UTC()
			end := time.Unix(0, r.Varint()).UTC()
			entries = append(entries, IngestEntry{Seq: seq, ID: id, Start: start, End: end})
		case entryRecord:
			seq := r.Uvarint()
			a := decodeAttack(r)
			if r.Err != nil {
				break
			}
			entries = append(entries, IngestEntry{
				Seq: seq, Record: a, ID: a.ID, Start: a.Start, End: a.End,
			})
		default:
			return nil, fmt.Errorf("cluster: unknown ingest entry kind %d", kind)
		}
	}
	if err := payloadErr(r); err != nil {
		return nil, err
	}
	return entries, nil
}

// encodeAttack appends one full dataset.Attack. Times cross as UTC
// unix-nanoseconds; every string and address round-trips verbatim so the
// shard's analyzer sees exactly the record the frontend validated.
//
//botvet:codec encode attack
func encodeAttack(w *binenc.Writer, a *dataset.Attack) {
	w.Uvarint(uint64(a.ID))
	w.Uvarint(uint64(a.BotnetID))
	w.Str(string(a.Family))
	w.Varint(int64(a.Category))
	w.Addr(a.TargetIP)
	w.Varint(a.Start.UnixNano())
	w.Varint(a.End.UnixNano())
	w.Uvarint(uint64(len(a.BotIPs)))
	for _, ip := range a.BotIPs {
		w.Addr(ip)
	}
	w.Varint(int64(a.TargetASN))
	w.Str(a.TargetCountry)
	w.Str(a.TargetCity)
	w.Str(a.TargetOrg)
	w.F64(a.TargetLat)
	w.F64(a.TargetLon)
}

// decodeAttack parses one full record; on malformed input it sets r.Err
// and returns an undefined record.
//
//botvet:codec decode attack
func decodeAttack(r *binenc.Reader) *dataset.Attack {
	a := &dataset.Attack{
		ID:       dataset.DDoSID(r.Uvarint()),
		BotnetID: dataset.BotnetID(r.Uvarint()),
		Family:   dataset.Family(r.Str()),
		Category: dataset.Category(r.Varint()),
		TargetIP: r.Addr(),
		Start:    time.Unix(0, r.Varint()).UTC(),
		End:      time.Unix(0, r.Varint()).UTC(),
	}
	// BSCW refuses the zero-address tag (BSCS uses it for an absent
	// controller): every address in a record names a real host.
	if !a.TargetIP.IsValid() {
		r.Fail()
	}
	n := r.Count(5) // every bot IP costs at least 5 bytes
	if n > 0 && r.Err == nil {
		a.BotIPs = make([]netip.Addr, 0, n)
	}
	for i := 0; i < n && r.Err == nil; i++ {
		ip := r.Addr()
		if !ip.IsValid() {
			r.Fail()
		}
		a.BotIPs = append(a.BotIPs, ip)
	}
	a.TargetASN = int(r.Varint())
	a.TargetCountry = r.Str()
	a.TargetCity = r.Str()
	a.TargetOrg = r.Str()
	a.TargetLat = r.F64()
	a.TargetLon = r.F64()
	return a
}

// helloAck is the shard's session greeting: its identity and how many
// ingest entries it has applied (the frontend uses the latter to spot a
// lagging or freshly reset shard).
type helloAck struct {
	ShardID int
	Applied uint64
}

//botvet:codec encode helloAck
func encodeHelloAck(w *binenc.Writer, h helloAck) {
	w.Varint(int64(h.ShardID))
	w.Uvarint(h.Applied)
}

//botvet:codec decode helloAck
func decodeHelloAck(payload []byte) (helloAck, error) {
	r := &binenc.Reader{Buf: payload}
	h := helloAck{ShardID: int(r.Varint()), Applied: r.Uvarint()}
	return h, payloadErr(r)
}

// ingestAck reports how many entries the shard has applied in total after
// this batch.
type ingestAck struct {
	Applied uint64
}

//botvet:codec encode ingestAck
func encodeIngestAck(w *binenc.Writer, a ingestAck) {
	w.Uvarint(a.Applied)
}

//botvet:codec decode ingestAck
func decodeIngestAck(payload []byte) (ingestAck, error) {
	r := &binenc.Reader{Buf: payload}
	a := ingestAck{Applied: r.Uvarint()}
	return a, payloadErr(r)
}
