// Package cluster implements botscope's sharded serve tier: N shard
// workers each own a consistent-hash partition of the live ingest stream
// (a stream.Partition per shard), and a frontend fans /api/live/* queries
// and /api/ingest batches out over a versioned binary wire protocol,
// merging shard responses so the cluster's output is byte-identical to a
// single-process server for any shard count.
//
// The determinism argument has two halves. Per-target statistics
// (protocol and family counters, daily buckets, collaboration windows)
// are partitioned by target IP — the key the collaboration detector
// groups by: each shard gets its own attacks' keys (id, botnet, family,
// category, target, start, end), and every chunk's length and horizon,
// which close collaboration windows at the same event times on every
// layout. So each partial is exact over a disjoint partition and the
// merge is integer addition plus a canonical reorder. Whole-feed
// statistics (inter-attack gaps, durations, the concurrent-load sweep)
// depend on the interleaving of the whole stream and cannot be merged
// from partitions without float reassociation; the frontend, the one
// place that sees the stream in order, folds them once through the
// stream.Scalars the single-process analyzer runs.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"botscope/internal/binenc"
)

// Wire protocol constants. The magic and version lead every frame so a
// frontend and shard from different builds fail fast instead of
// misinterpreting each other. Version 2 carries an owned attack as its
// key only (wireAttack); version 3 sends a snapshot's daily series as the
// rows past the session's cursor (wireSnapReq, wireSnapshot); version 4
// sends a shard only its own records plus each chunk's length and horizon
// (wireIngest), and takes back only the per-target half (wireSnapshot).
// An older peer is refused with ErrBadVersion.
const (
	wireMagic   = "BSCW"
	wireVersion = 4

	// headerLen is magic(4) + version(1) + type(1) + flags(2) + reqID(4) +
	// payload length(4).
	headerLen = 16

	// maxPayload bounds a frame's payload so a corrupt or malicious length
	// prefix cannot force an arbitrary allocation. An ingest payload is
	// capped at ingestChunk entries (wireIngest), so its decode costs at
	// most 256 × ~224 bytes — a ~13-byte key record becomes a 16-byte
	// IngestEntry plus a 208-byte Attack — whatever the frame's length.
	// Every other slice is made at its declared count (binenc.Len), checked
	// only against the wire minimum of an element, so a malformed snapshot
	// payload of this size can cost ~16x as much heap before it is refused
	// (a 1-byte family name is a 16-byte string header, a 7-byte candidate
	// ~100 bytes).
	maxPayload = 64 << 20
)

// FrameKind identifies one BSCW frame type. The set is closed: the
// wireframe rule of internal/gate checks every switch over a FrameKind
// against the constants below, so adding a kind forces every dispatch
// point to decide how to handle it — protocol drift fails the gate
// instead of silently falling through a default.
//
//botvet:wire
type FrameKind byte

// Frame kinds.
const (
	msgHello     FrameKind = 1 // frontend → shard: open a session
	msgHelloAck  FrameKind = 2 // shard → frontend: shard id + applied count
	msgIngest    FrameKind = 3 // frontend → shard: a chunk's owned records, length and horizon
	msgIngestAck FrameKind = 4 // shard → frontend: batch applied (or busy)
	msgSnap      FrameKind = 5 // frontend → shard: request a snapshot past a daily cursor
	msgSnapResp  FrameKind = 6 // shard → frontend: encoded ShardSnapshot, daily rows from DaysFrom
	msgLeave     FrameKind = 7 // frontend → shard: reset state for a clean rejoin
	msgLeaveAck  FrameKind = 8 // shard → frontend: state dropped
	msgPing      FrameKind = 9 // liveness probe
	msgPong      FrameKind = 10
)

// ack maps a request kind to the kind acknowledging it. Ack kinds map to
// themselves: they acknowledge nothing, and answering an ack is a peer
// role violation callers reject before consulting this table.
func (k FrameKind) ack() FrameKind {
	switch k {
	case msgHello:
		return msgHelloAck
	case msgIngest:
		return msgIngestAck
	case msgSnap:
		return msgSnapResp
	case msgLeave:
		return msgLeaveAck
	case msgPing:
		return msgPong
	case msgHelloAck, msgIngestAck, msgSnapResp, msgLeaveAck, msgPong:
		return k
	}
	return k
}

// Frame flags.
const (
	// flagBusy marks an ack for a request the shard had to refuse because
	// its bounded ingest queue was full — the backpressure signal.
	flagBusy uint16 = 1 << 0
	// flagError marks an ack whose payload is an error string.
	flagError uint16 = 1 << 1
)

// Frame is one wire protocol message.
type Frame struct {
	Type    FrameKind
	Flags   uint16
	ReqID   uint32
	Payload []byte
}

// Wire protocol errors.
var (
	ErrBadMagic    = errors.New("cluster: bad wire magic")
	ErrBadVersion  = errors.New("cluster: unsupported wire version")
	ErrFrameTooBig = errors.New("cluster: frame payload exceeds limit")
	ErrTruncated   = errors.New("cluster: truncated wire payload")
)

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice (caller owns the buffer).
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = append(dst, wireMagic...)
	dst = append(dst, wireVersion, byte(f.Type))
	dst = binary.BigEndian.AppendUint16(dst, f.Flags)
	dst = binary.BigEndian.AppendUint32(dst, f.ReqID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	return append(dst, f.Payload...)
}

// ReadFrame reads one frame from r, allocating the payload.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	f, n, err := parseHeader(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("cluster: reading %d-byte payload: %w", n, err)
		}
	}
	return f, nil
}

// parseHeader decodes the fixed header, returning the frame shell and the
// declared payload length.
func parseHeader(hdr []byte) (Frame, int, error) {
	if string(hdr[:4]) != wireMagic {
		return Frame{}, 0, ErrBadMagic
	}
	if hdr[4] != wireVersion {
		return Frame{}, 0, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[4], wireVersion)
	}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > maxPayload {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	return Frame{
		Type:  FrameKind(hdr[5]),
		Flags: binary.BigEndian.Uint16(hdr[6:8]),
		ReqID: binary.BigEndian.Uint32(hdr[8:12]),
	}, int(n), nil
}

// DecodeFrame parses one frame from a byte slice (the fuzzer's entry
// point; the streaming path uses ReadFrame). The returned frame's payload
// aliases data.
func DecodeFrame(data []byte) (Frame, error) {
	if len(data) < headerLen {
		return Frame{}, ErrTruncated
	}
	f, n, err := parseHeader(data[:headerLen])
	if err != nil {
		return Frame{}, err
	}
	if len(data)-headerLen < n {
		return Frame{}, ErrTruncated
	}
	f.Payload = data[headerLen : headerLen+n]
	return f, nil
}

// payloadErr reports how a payload decode ended: nil only when the walk
// consumed the buffer exactly. A buffer that ends before the message does,
// goes on after it, or holds a value the message cannot carry (a bool byte
// other than 0/1, a zero host address, an unknown entry kind, a count the
// remaining bytes cannot hold) is ErrTruncated.
func payloadErr(c *binenc.Codec) error {
	if c.Finish() != nil {
		return ErrTruncated
	}
	return nil
}
