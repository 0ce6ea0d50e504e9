package dataset

// snapshot.go is the versioned binary columnar snapshot codec ("BSCS").
// A snapshot serializes the columnar core (columns.go) — interned string
// table, attack/bot/botnet columns, and the dense source-IP layer — so a
// generated workload reloads in seconds instead of being regenerated and
// re-indexed. Values are written with the internal/binenc primitives it
// shares with internal/cluster's BSCW wire codec; this file adds the
// framing, the typed located errors, and the interned-string ids.
//
// Format versioning rules: the magic never changes; the version byte
// bumps on any layout change (there is no in-place migration — a
// snapshot is a cache of a reproducible workload, so "regenerate and
// re-snapshot" is always safe); decoders reject unknown versions rather
// than guessing, and version 2 is the only one written or read. Decode
// is strict: every interned-id and row reference is bounds-checked,
// attack rows must arrive sorted by (Start, ID) with unique ids, dense
// ids must be numbered in first-appearance order, and trailing bytes (in
// the stream, and inside each section frame) are an error. A decoded
// store therefore satisfies exactly the invariants NewStore enforces.
//
// Layout (version 2):
//
//	"BSCS" | version uvarint
//	6 section frames, in fixed order (strings, targets, botnets, bots,
//	attacks, dense), each:
//	    section id byte (1..6) |
//	    payload length uint64 BE |
//	    payload crc32 (Castagnoli) uint32 BE |
//	    payload
//
// The fixed-width frame header lets the encoder emit each payload
// straight into the output buffer and backfill length + checksum, and
// lets a reader verify or skip a section without parsing it. Payloads:
//
//	strings:  count | (len | bytes)*
//	targets:  count | addr*
//	botnets:  count | id* | fam* | hash* | ctrl* | first* | last*
//	bots:     count | ip* | asn* | cc* | city* | org* | lat* | lon* | lastΔ*
//	attacks:  count | nRefs | id* | botnet* | fam* | cat* | tgt* |
//	          startΔ* | endΔ* | asn* | cc* | city* | org* | lat* | lon* | span*
//	dense:    count | ip* | ref* | rec*
//
// Sections are column-major: each column is one contiguous run, which
// keeps related varints adjacent. Attack starts are deltas from the
// previous row (the sort makes them small and non-negative), ends are
// deltas from their own start, bot LastActive values are zigzag deltas
// from the previous row (clustered inside the paper window).
//
// The per-section checksums also feed a process-local validation cache:
// when a snapshot whose six (length, crc) pairs were already fully
// validated by an earlier load is decoded again, the structural parse
// still runs (it is what builds the columns) but the semantic
// re-validation (validateColumns) is skipped.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/netip"
	"os"
	"sync"

	"botscope/internal/binenc"
	"botscope/internal/memo"
)

// Snapshot codec constants.
const (
	snapMagic   = "BSCS"
	snapVersion = 2
)

// Section ids of the v2 frame layout, in stream order.
const (
	secStrings = 1
	secTargets = 2
	secBotnets = 3
	secBots    = 4
	secAttacks = 5
	secDense   = 6
)

// snapSectionName names each section for typed decode errors; index 0 is
// the pre-section header.
var snapSectionName = [...]string{"header", "strings", "targets", "botnets", "bots", "attacks", "dense"}

// castagnoli is the CRC-32C table used for section checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot codec errors.
var (
	ErrSnapshotMagic     = errors.New("dataset: bad snapshot magic")
	ErrSnapshotVersion   = errors.New("dataset: unsupported snapshot version")
	ErrSnapshotTruncated = errors.New("dataset: truncated snapshot")
	ErrSnapshotCorrupt   = errors.New("dataset: corrupt snapshot")
)

// SnapshotError locates a decode failure: which section the reader was
// in and the absolute byte offset (from the start of the snapshot) where
// it gave up. It wraps the underlying cause, so
// errors.Is(err, ErrSnapshotTruncated) and friends keep working.
type SnapshotError struct {
	Section string // section being parsed ("header", "strings", ..., "dense")
	Offset  int64  // absolute offset into the snapshot bytes
	Err     error
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("%v (in %s section at offset %d)", e.Err, e.Section, e.Offset)
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// validatedSnapshots caches the (length, crc) frame headers of snapshots
// that fully passed validateColumns in this process, so
// re-loading a byte-identical snapshot skips semantic re-validation.
var validatedSnapshots sync.Map // string (concatenated frame headers) -> struct{}

// SnapshotInfo describes how a store's snapshot was loaded.
type SnapshotInfo struct {
	Version int   // snapshot format version (0 for stores not loaded from a snapshot)
	Bytes   int64 // encoded size in bytes
	Mapped  bool  // true when the columns alias a memory-mapped file
}

// SnapshotInfo reports how this store was loaded. The zero value means
// the store was built from records, not a snapshot.
func (s *Store) SnapshotInfo() SnapshotInfo { return s.snapInfo }

// snapReader is a binenc.Reader that knows where in the snapshot it is,
// so a decode failure can name its section and absolute offset. end is
// the absolute offset (from the start of the snapshot) of the last byte
// of Buf, so the current position is end - len(Buf).
type snapReader struct {
	binenc.Reader
	section string
	end     int64
}

// off returns the reader's absolute offset into the snapshot bytes.
func (r *snapReader) off() int64 { return r.end - int64(len(r.Buf)) }

// failure returns the sticky error, located. A short buffer stops the
// reader where it happened, so its position is still the failing one.
func (r *snapReader) failure() error {
	if r.Err == binenc.ErrShort {
		return &SnapshotError{Section: r.section, Offset: r.off(), Err: ErrSnapshotTruncated}
	}
	return r.Err
}

// failf stops the reader with a located ErrSnapshotCorrupt.
func (r *snapReader) failf(format string, args ...any) {
	if r.Err == nil {
		r.Err = &SnapshotError{
			Section: r.section,
			Offset:  r.off(),
			Err:     fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCorrupt}, args...)...),
		}
	}
}

// strID reads an interned string id and bounds-checks it.
func (r *snapReader) strID(nStr int) int32 {
	v := r.Uvarint()
	if r.Err != nil {
		return 0
	}
	if v >= uint64(nStr) {
		r.failf("string id %d out of range (%d interned)", v, nStr)
		return 0
	}
	return int32(v)
}

// WriteSnapshot writes the store's BSCS snapshot to w. It returns
// ErrStoreClosed for a closed store: encoding reads the columns, and on
// a mapped store those bytes were released by Close.
func WriteSnapshot(w io.Writer, s *Store) error {
	if s.Closed() {
		return ErrStoreClosed
	}
	_, err := w.Write(EncodeSnapshot(s))
	return err
}

// ReadSnapshot reads one BSCS snapshot from r and returns a lazy store
// over the decoded columns. When r is a regular file (and mmap is
// supported and not disabled via BOTSCOPE_NO_MMAP), the snapshot bytes
// are memory-mapped rather than read into the heap, and the columns that
// the codec stores as raw bytes decode zero-copy over the mapping; any
// mmap failure falls back to the plain read path. The record views of
// the returned store are materialized on demand (see Store.records); a
// column-native analysis run never builds them.
func ReadSnapshot(r io.Reader) (*Store, error) {
	if f, ok := r.(*os.File); ok && os.Getenv("BOTSCOPE_NO_MMAP") == "" {
		if s, err, done := readSnapshotMapped(f); done {
			return s, err
		}
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// The buffer is private to this call, so columns may alias it.
	return decodeSnapshot(data, true, false)
}

// readSnapshotMapped maps the rest of f and decodes over the mapping.
// done is false when the mapped path is unavailable (not a regular file,
// empty remainder, mmap failure) and the caller should fall back to the
// read path; when done is true the decode outcome — success or a decode
// error identical to the one the read path would produce — is final.
func readSnapshotMapped(f *os.File) (s *Store, err error, done bool) {
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil || pos < 0 {
		return nil, nil, false
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return nil, nil, false
	}
	size := fi.Size()
	if size <= pos {
		return nil, nil, false
	}
	m, err := mmapFile(f, size)
	if err != nil {
		return nil, nil, false
	}
	s, err = decodeSnapshot(m.data[pos:], true, true)
	if err != nil {
		m.close()
		return nil, err, true
	}
	// Consume the reader like io.ReadAll would, so callers that share the
	// file handle see the same position either way.
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		m.close()
		return nil, err, true
	}
	s.cols.mmap = m
	return s, nil, true
}

// EncodeSnapshot serializes the store's columnar form (deriving it from
// the records first if this store was never columnized) in the current
// (v2) frame layout.
func EncodeSnapshot(s *Store) []byte {
	c := s.Cols()
	d := s.denseBots()
	strBytes := 0
	for _, str := range c.strs {
		strBytes += len(str) + 2
	}
	hint := 160 + strBytes +
		21*(len(c.targets)+len(d.ips)+len(c.nID)) +
		64*len(c.bIP) + 80*len(c.aID) + 5*c.NumRefs() + 2*len(d.rec)
	w := &binenc.Writer{Buf: make([]byte, 0, hint)}
	w.Buf = append(w.Buf, snapMagic...)
	w.Uvarint(snapVersion)

	frame := func(id byte, enc func()) {
		w.Buf = append(w.Buf, id)
		hdr := len(w.Buf)
		w.Buf = append(w.Buf, make([]byte, 12)...)
		start := len(w.Buf)
		enc()
		payload := w.Buf[start:]
		binary.BigEndian.PutUint64(w.Buf[hdr:hdr+8], uint64(len(payload)))
		binary.BigEndian.PutUint32(w.Buf[hdr+8:hdr+12], crc32.Checksum(payload, castagnoli))
	}
	frame(secStrings, func() { encStrings(w, c) })
	frame(secTargets, func() { encTargets(w, c) })
	frame(secBotnets, func() { encBotnets(w, c) })
	frame(secBots, func() { encBots(w, c) })
	frame(secAttacks, func() { encAttacks(w, c) })
	frame(secDense, func() { encDense(w, d) })
	return w.Buf
}

// The enc* functions emit one section payload each.

//botvet:codec encode strings
func encStrings(w *binenc.Writer, c *Columns) {
	w.Uvarint(uint64(len(c.strs)))
	for _, str := range c.strs {
		w.Str(str)
	}
}

//botvet:codec encode targets
func encTargets(w *binenc.Writer, c *Columns) {
	w.Uvarint(uint64(len(c.targets)))
	for _, a := range c.targets {
		w.Addr(a)
	}
}

//botvet:codec encode botnets
func encBotnets(w *binenc.Writer, c *Columns) {
	w.Uvarint(uint64(len(c.nID)))
	for _, v := range c.nID {
		w.Uvarint(uint64(v))
	}
	for _, v := range c.nFam {
		w.Uvarint(uint64(v))
	}
	for _, v := range c.nHash {
		w.Uvarint(uint64(v))
	}
	for _, a := range c.nCtrl {
		w.Addr(a)
	}
	for _, v := range c.nFirst {
		w.Varint(v)
	}
	for _, v := range c.nLast {
		w.Varint(v)
	}
}

//botvet:codec encode bots
func encBots(w *binenc.Writer, c *Columns) {
	w.Uvarint(uint64(len(c.bIP)))
	for _, a := range c.bIP {
		w.Addr(a)
	}
	for _, v := range c.bASN {
		w.Varint(v)
	}
	for _, v := range c.bCC {
		w.Uvarint(uint64(v))
	}
	for _, v := range c.bCity {
		w.Uvarint(uint64(v))
	}
	for _, v := range c.bOrg {
		w.Uvarint(uint64(v))
	}
	for _, v := range c.bLat {
		w.F64(v)
	}
	for _, v := range c.bLon {
		w.F64(v)
	}
	prev := int64(0)
	for _, v := range c.bLast {
		w.Varint(v - prev)
		prev = v
	}
}

//botvet:codec encode attacks
func encAttacks(w *binenc.Writer, c *Columns) {
	n := len(c.aID)
	w.Uvarint(uint64(n))
	w.Uvarint(uint64(c.NumRefs()))
	for _, v := range c.aID {
		w.Uvarint(v)
	}
	for _, v := range c.aBotnet {
		w.Uvarint(uint64(v))
	}
	for _, v := range c.aFam {
		w.Uvarint(uint64(v))
	}
	w.Buf = append(w.Buf, c.aCat...)
	for _, v := range c.aTgt {
		w.Uvarint(uint64(v))
	}
	prev := int64(0)
	for i, v := range c.aStart {
		if i == 0 {
			w.Varint(v)
		} else {
			w.Uvarint(uint64(v - prev)) // sorted: non-negative
		}
		prev = v
	}
	for i, v := range c.aEnd {
		w.Uvarint(uint64(v - c.aStart[i])) // validated: End >= Start
	}
	for _, v := range c.aASN {
		w.Varint(v)
	}
	for _, v := range c.aCC {
		w.Uvarint(uint64(v))
	}
	for _, v := range c.aCity {
		w.Uvarint(uint64(v))
	}
	for _, v := range c.aOrg {
		w.Uvarint(uint64(v))
	}
	for _, v := range c.aLat {
		w.F64(v)
	}
	for _, v := range c.aLon {
		w.F64(v)
	}
	for i := 0; i < n; i++ {
		w.Uvarint(uint64(c.aOff[i+1] - c.aOff[i]))
	}
}

//botvet:codec encode dense
func encDense(w *binenc.Writer, d *denseBots) {
	w.Uvarint(uint64(len(d.ips)))
	for _, a := range d.ips {
		w.Addr(a)
	}
	for _, v := range d.refs {
		w.Uvarint(uint64(v))
	}
	for _, row := range d.rec {
		w.Uvarint(uint64(row + 1)) // 0 = unresolved
	}
}

// DecodeSnapshot parses a BSCS snapshot and returns a lazy store over
// the decoded columns, validating every column invariant, so a corrupt
// or hostile snapshot yields an error rather than a malformed store.
// This is the fuzzer's entry point. The caller keeps ownership of data:
// nothing in the returned store aliases it.
func DecodeSnapshot(data []byte) (*Store, error) {
	return decodeSnapshot(data, false, false)
}

// decodeSnapshot is the shared decode core. alias permits columns to
// reference data directly (the caller guarantees data is immutable and
// outlives the store); mapped records provenance in SnapshotInfo.
// Semantic validation is skipped when a snapshot with the same section
// checksums already passed it in this process.
func decodeSnapshot(data []byte, alias, mapped bool) (*Store, error) {
	c, crcKey, err := decodeColumns(data, alias)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cols:     c,
		snapInfo: SnapshotInfo{Version: snapVersion, Bytes: int64(len(data)), Mapped: mapped},
	}
	if _, ok := validatedSnapshots.Load(crcKey); !ok {
		if err := validateColumns(c, s.denseBots()); err != nil {
			return nil, err
		}
		validatedSnapshots.Store(crcKey, struct{}{})
	}
	return s, nil
}

// decodeColumns parses a snapshot into columns. It also returns the
// concatenated frame headers, the validation-cache key.
func decodeColumns(data []byte, alias bool) (*Columns, string, error) {
	if len(data) < len(snapMagic) {
		return nil, "", ErrSnapshotTruncated
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, "", ErrSnapshotMagic
	}
	r := &snapReader{Reader: binenc.Reader{Buf: data[len(snapMagic):]}, end: int64(len(data)), section: "header"}
	v := r.Uvarint()
	if r.Err != nil {
		return nil, "", r.failure()
	}
	if v != snapVersion {
		return nil, "", fmt.Errorf("%w: got %d, want %d", ErrSnapshotVersion, v, snapVersion)
	}
	c := &Columns{}
	key := make([]byte, 0, 6*13)
	var nStr, nTgt, nb, nRefs int
	for sec := byte(secStrings); sec <= secDense; sec++ {
		r.section = snapSectionName[sec]
		if len(r.Buf) < 13 {
			r.Fail()
			return nil, "", r.failure()
		}
		if r.Buf[0] != sec {
			r.failf("section id %d, want %d (%s)", r.Buf[0], sec, snapSectionName[sec])
			return nil, "", r.failure()
		}
		plen := binary.BigEndian.Uint64(r.Buf[1:9])
		sum := binary.BigEndian.Uint32(r.Buf[9:13])
		key = append(key, r.Buf[:13]...)
		r.Buf = r.Buf[13:]
		if uint64(len(r.Buf)) < plen {
			r.Fail()
			return nil, "", r.failure()
		}
		payload := r.Buf[:plen]
		if crc32.Checksum(payload, castagnoli) != sum {
			r.failf("%s section checksum mismatch", snapSectionName[sec])
			return nil, "", r.failure()
		}
		base := r.off()
		r.Buf = r.Buf[plen:]
		sr := &snapReader{Reader: binenc.Reader{Buf: payload}, end: base + int64(plen), section: snapSectionName[sec]}
		switch sec {
		case secStrings:
			nStr = parseStrings(sr, c)
		case secTargets:
			nTgt = parseTargets(sr, c)
		case secBotnets:
			parseBotnets(sr, c, nStr)
		case secBots:
			nb = parseBots(sr, c, nStr)
		case secAttacks:
			nRefs = parseAttacks(sr, c, nStr, nTgt, alias)
		case secDense:
			parseDense(sr, c, nRefs, nb)
		}
		if sr.Err != nil {
			return nil, "", sr.failure()
		}
		if len(sr.Buf) != 0 {
			return nil, "", &SnapshotError{
				Section: snapSectionName[sec],
				Offset:  sr.off(),
				Err:     fmt.Errorf("%w: %d trailing bytes in %s section", ErrSnapshotCorrupt, len(sr.Buf), snapSectionName[sec]),
			}
		}
	}
	if len(r.Buf) != 0 {
		return nil, "", &SnapshotError{
			Section: "trailer",
			Offset:  r.off(),
			Err:     fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(r.Buf)),
		}
	}
	return c, string(key), nil
}

// The parse* functions consume one section payload each, from a reader
// framed to exactly that payload.

//botvet:codec decode strings
func parseStrings(r *snapReader, c *Columns) int {
	nStr := r.Count(1)
	c.strs = make([]string, nStr)
	for i := range c.strs {
		c.strs[i] = r.Str()
	}
	if r.Err == nil && (nStr == 0 || c.strs[0] != "") {
		r.failf("string table must start with the empty string")
	}
	return nStr
}

//botvet:codec decode targets
func parseTargets(r *snapReader, c *Columns) int {
	nTgt := r.Count(1)
	c.targets = make([]netip.Addr, nTgt)
	for i := range c.targets {
		c.targets[i] = r.Addr()
	}
	return nTgt
}

//botvet:codec decode botnets
func parseBotnets(r *snapReader, c *Columns, nStr int) {
	// Botnet rows cost at least 1 byte in each of 6 columns.
	nn := r.Count(6)
	c.nID = make([]uint32, nn)
	for i := range c.nID {
		v := r.Uvarint()
		if r.Err == nil && v > math.MaxUint32 {
			r.failf("botnet id %d overflows uint32", v)
		}
		c.nID[i] = uint32(v)
	}
	c.nFam = make([]int32, nn)
	for i := range c.nFam {
		c.nFam[i] = r.strID(nStr)
	}
	c.nHash = make([]int32, nn)
	for i := range c.nHash {
		c.nHash[i] = r.strID(nStr)
	}
	c.nCtrl = make([]netip.Addr, nn)
	for i := range c.nCtrl {
		c.nCtrl[i] = r.Addr()
	}
	c.nFirst = make([]int64, nn)
	for i := range c.nFirst {
		c.nFirst[i] = r.Varint()
	}
	c.nLast = make([]int64, nn)
	for i := range c.nLast {
		c.nLast[i] = r.Varint()
	}
}

//botvet:codec decode bots
func parseBots(r *snapReader, c *Columns, nStr int) int {
	// Bot rows cost at least 1+1+1+1+1+8+8+1 = 22 bytes across columns.
	nb := r.Count(22)
	c.bIP = make([]netip.Addr, nb)
	for i := range c.bIP {
		c.bIP[i] = r.Addr()
	}
	c.bASN = make([]int64, nb)
	for i := range c.bASN {
		c.bASN[i] = r.Varint()
	}
	c.bCC = make([]int32, nb)
	for i := range c.bCC {
		c.bCC[i] = r.strID(nStr)
	}
	c.bCity = make([]int32, nb)
	for i := range c.bCity {
		c.bCity[i] = r.strID(nStr)
	}
	c.bOrg = make([]int32, nb)
	for i := range c.bOrg {
		c.bOrg[i] = r.strID(nStr)
	}
	c.bLat = make([]float64, nb)
	for i := range c.bLat {
		c.bLat[i] = r.F64()
	}
	c.bLon = make([]float64, nb)
	for i := range c.bLon {
		c.bLon[i] = r.F64()
	}
	c.bLast = make([]int64, nb)
	prev := int64(0)
	for i := range c.bLast {
		prev += r.Varint()
		c.bLast[i] = prev
	}
	return nb
}

//botvet:codec decode attacks
func parseAttacks(r *snapReader, c *Columns, nStr, nTgt int, alias bool) int {
	// Attack rows cost at least 1 byte in each of 12 varint/byte columns
	// plus 8 each for the two float columns: 28 bytes.
	n := r.Count(28)
	// The references themselves live in the dense section, so nRefs is
	// only sanity-bounded here (the span sum must hit it exactly below,
	// and the dense parser re-bounds it against its own payload before
	// allocating).
	nRefs64 := r.Uvarint()
	if r.Err == nil && nRefs64 > math.MaxInt64/4 {
		r.failf("reference count %d implausibly large", nRefs64)
	}
	nRefs := int(nRefs64)
	c.aID = make([]uint64, n)
	for i := range c.aID {
		c.aID[i] = r.Uvarint()
	}
	c.aBotnet = make([]uint32, n)
	for i := range c.aBotnet {
		v := r.Uvarint()
		if r.Err == nil && v > math.MaxUint32 {
			r.failf("attack botnet id %d overflows uint32", v)
		}
		c.aBotnet[i] = uint32(v)
	}
	c.aFam = make([]int32, n)
	for i := range c.aFam {
		c.aFam[i] = r.strID(nStr)
	}
	if r.Err == nil && len(r.Buf) < n {
		r.Fail()
	}
	if r.Err == nil {
		if alias {
			// The category column is stored as raw bytes, so over a mapped
			// snapshot it can alias the file instead of being copied; the
			// columns pin the mapping (Columns.mmap).
			c.aCat = r.Buf[:n:n]
		} else {
			c.aCat = make([]uint8, n)
			copy(c.aCat, r.Buf[:n])
		}
		r.Buf = r.Buf[n:]
	} else {
		c.aCat = make([]uint8, n)
	}
	c.aTgt = make([]int32, n)
	for i := range c.aTgt {
		v := r.Uvarint()
		if r.Err == nil && v >= uint64(nTgt) {
			r.failf("attack target id %d out of range (%d targets)", v, nTgt)
		}
		c.aTgt[i] = int32(v)
	}
	c.aStart = make([]int64, n)
	prev := int64(0)
	for i := range c.aStart {
		if i == 0 {
			prev = r.Varint()
		} else {
			prev += int64(r.Uvarint())
		}
		c.aStart[i] = prev
	}
	c.aEnd = make([]int64, n)
	for i := range c.aEnd {
		c.aEnd[i] = c.aStart[i] + int64(r.Uvarint())
	}
	c.aASN = make([]int64, n)
	for i := range c.aASN {
		c.aASN[i] = r.Varint()
	}
	c.aCC = make([]int32, n)
	for i := range c.aCC {
		c.aCC[i] = r.strID(nStr)
	}
	c.aCity = make([]int32, n)
	for i := range c.aCity {
		c.aCity[i] = r.strID(nStr)
	}
	c.aOrg = make([]int32, n)
	for i := range c.aOrg {
		c.aOrg[i] = r.strID(nStr)
	}
	c.aLat = make([]float64, n)
	for i := range c.aLat {
		c.aLat[i] = r.F64()
	}
	c.aLon = make([]float64, n)
	for i := range c.aLon {
		c.aLon[i] = r.F64()
	}
	c.aOff = make([]int64, n+1)
	off := int64(0)
	for i := 0; i < n; i++ {
		c.aOff[i] = off
		off += int64(r.Uvarint())
		if r.Err == nil && off > int64(nRefs) {
			r.failf("attack spans exceed declared reference count %d", nRefs)
		}
	}
	c.aOff[n] = off
	if r.Err == nil && off != int64(nRefs) {
		r.failf("attack spans cover %d references, header declares %d", off, nRefs)
	}
	return nRefs
}

//botvet:codec decode dense
func parseDense(r *snapReader, c *Columns, nRefs, nb int) {
	nDense := r.Count(2)
	ips := make([]netip.Addr, nDense)
	for i := range ips {
		ips[i] = r.Addr()
	}
	// Every reference costs at least 1 byte in the refs column, which
	// bounds the allocation below even though nRefs was declared back in
	// the attacks section.
	if r.Err == nil && uint64(nRefs) > uint64(len(r.Buf)) {
		r.Fail()
	}
	if r.Err != nil {
		return
	}
	refs := make([]int32, nRefs)
	nextID := int32(0)
	for i := range refs {
		v := r.Uvarint()
		if r.Err != nil {
			break
		}
		if v >= uint64(nDense) {
			r.failf("dense ref %d out of range (%d ids)", v, nDense)
			break
		}
		id := int32(v)
		// Dense ids are canonical: id k must first appear only after ids
		// 0..k-1 have, which pins the numbering to first appearance in
		// attack order — the same numbering buildDense derives.
		if id > nextID {
			r.failf("dense id %d appears before id %d", id, nextID)
			break
		}
		if id == nextID {
			nextID++
		}
		refs[i] = id
	}
	if r.Err == nil && nextID != int32(nDense) {
		r.failf("dense table has %d ids but only %d are referenced", nDense, nextID)
	}
	rec := make([]int32, nDense)
	for i := range rec {
		v := r.Uvarint()
		if r.Err != nil {
			break
		}
		if v == 0 {
			rec[i] = -1
			continue
		}
		if v-1 >= uint64(nb) {
			r.failf("dense record row %d out of range (%d bots)", v-1, nb)
			break
		}
		rec[i] = int32(v - 1)
	}
	if r.Err != nil {
		return
	}
	c.dense = memo.Filled(&denseBots{ips: ips, refs: refs, rec: rec})
}
