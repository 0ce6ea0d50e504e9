package dataset

// snapshot.go is the versioned binary columnar snapshot codec ("BSCS").
// A snapshot stores the columnar core (columns.go) — interned string
// table, attack/bot/botnet columns, and the dense source-IP layer — in
// the form the kernels read it: every column is a run of little-endian
// fixed-width cells at an 8-byte-aligned file offset, so opening a
// snapshot is checking it, not decoding it.
//
// Format versioning rules: the magic never changes; the version byte
// bumps on any layout change (there is no in-place migration — a
// snapshot is a cache of a reproducible workload, so "regenerate and
// re-snapshot" is always safe); decoders reject unknown versions rather
// than guessing, and version 3 is the only one written or read.
//
// Layout (version 3), all integers little-endian:
//
//	"BSCS" | version byte | 3 zero bytes
//	6 section frames, in fixed order (strings, targets, botnets, bots,
//	attacks, dense), each:
//	    section id byte (1..6) | 3 zero bytes |
//	    payload crc32 (Castagnoli) uint32 |
//	    payload length uint64 (a multiple of 8) |
//	    payload: the section's row counts as uint64 words (snapDimMax),
//	             then its columns in layout order, each zero-padded to 8
//
// Header and frame headers are 8 and 16 bytes, so every column starts at
// a multiple of 8 from the start of the snapshot. Which columns a section
// holds, how wide their cells are and where they land in memory is one
// table, snapImage.layout, that the encoder, both decode paths and the
// range checks all walk; the string table (one heap blob sliced into
// []string) and the two small address tables are converted from and to
// their file columns beside it (imageOf, finish).
//
// There are two decode paths. The view aliases each column in place
// (unsafe.Slice over the mapping, or over ReadSnapshot's private heap
// buffer) and needs a little-endian host and an 8-byte-aligned base,
// both tested at open. The copy allocates each column and is what
// big-endian hosts, a misaligned base and DecodeSnapshot (whose caller
// keeps its bytes) get. Everything after a column is placed is shared,
// so the two produce indistinguishable stores.
//
// Every open checks, whichever path: per-section CRC, exact section
// length (no trailing bytes in a section or after the last), zero
// padding, string/target/dense/bot-row ids in range, address tags and
// their canonical bytes, End >= Start, rows sorted by (Start, ID),
// reference spans monotone and summing to the declared count, dense ids
// numbered in first-appearance order and all referenced. The remaining
// store invariants (validateColumns) are skipped when a snapshot with
// the same six frame headers already passed them in this process.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"unsafe"

	"botscope/internal/memo"
)

// Snapshot codec constants.
const (
	snapMagic     = "BSCS"
	snapVersion   = 3
	snapHeaderLen = 8  // magic, version, three zero bytes
	snapFrameLen  = 16 // section id, three zero bytes, crc32, payload length
	snapMaxArena  = 1 << 40
	snapMaxRows   = math.MaxInt32
)

// Section ids of the frame layout, in stream order.
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

// snapDimMax lists the row-count words each section's payload opens with
// and the largest value each may hold: rows are int32 ids everywhere,
// byte and reference totals index int64 arenas.
var snapDimMax = [...][]uint64{
	secStrings: {snapMaxRows, snapMaxArena}, // strings, blob bytes
	secTargets: {snapMaxRows},
	secBotnets: {snapMaxRows},
	secBots:    {snapMaxRows},
	secAttacks: {snapMaxRows, snapMaxArena}, // attacks, source references
	secDense:   {snapMaxRows},
}

// castagnoli is the CRC-32C table used for section checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittle reports whether this host stores integers the way the file
// does; only then can a column be viewed in place.
var hostLittle = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

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

// snapTruncated and snapCorrupt build the two located decode errors.
func snapTruncated(section string, off int) error {
	return &SnapshotError{Section: section, Offset: int64(off), Err: ErrSnapshotTruncated}
}

func snapCorrupt(section string, off int, format string, args ...any) error {
	return &SnapshotError{Section: section, Offset: int64(off),
		Err: fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCorrupt}, args...)...)}
}

// validatedSnapshots caches the frame headers (length, crc) of snapshots
// that fully passed validateColumns in this process, so re-loading a
// byte-identical snapshot skips semantic re-validation.
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

// fixed is the set of cell types a column may have: the file stores each
// as its little-endian bytes.
type fixed interface {
	~uint8 | ~int32 | ~uint32 | ~int64 | ~uint64 | ~float64
}

// column is one destination of the section layout: a typed slice the
// file stores as fixed-width cells.
type column interface {
	width() int            // bytes per cell
	raw() []byte           // the cells as host-order bytes
	view(b []byte)         // alias b as the cells; b is host-order and aligned to width
	alloc(rows int) []byte // replace the cells with rows fresh ones, returned as raw()
}

// cells is the column over *p. It is the only place a snapshot byte
// range and a typed slice are converted into each other.
type cells[T fixed] struct{ p *[]T }

func (c cells[T]) width() int {
	var cell T
	return int(unsafe.Sizeof(cell))
}

func (c cells[T]) raw() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(*c.p))), len(*c.p)*c.width())
}

func (c cells[T]) view(b []byte) {
	*c.p = unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/c.width())
}

func (c cells[T]) alloc(rows int) []byte {
	*c.p = make([]T, rows)
	return c.raw()
}

// swapCells reverses every w-byte cell of b in place: all a big-endian
// host does differently, after copying a column in or out.
func swapCells(b []byte, w int) {
	for ; w > 1 && len(b) >= w; b = b[w:] {
		slices.Reverse(b[:w])
	}
}

// snapCol is one row of the section layout: a named column, how many
// cells it holds, and what every open checks about them.
type snapCol struct {
	name string
	col  column
	rows int

	ids     *[]int32 // set on an id column: every cell lies in [lo, lim)
	lo, lim int32
	addr    *addrCol // set on an address column's tags: tags and bytes are canonical
}

func num[T fixed](name string, p *[]T, rows int) snapCol {
	return snapCol{name: name, col: cells[T]{p}, rows: rows}
}

func ids(name string, p *[]int32, rows int, lo, lim int) snapCol {
	return snapCol{name: name, col: cells[int32]{p}, rows: rows, ids: p, lo: int32(lo), lim: int32(lim)}
}

func addrs(name string, a *addrCol, rows int) []snapCol {
	tags := num(name+" tags", &a.tag, rows)
	tags.addr = a
	return []snapCol{num(name, &a.b, 16*rows), tags}
}

// snapImage is a snapshot's content as the flat arrays the file holds:
// the store's columns and dense layer, plus the three tables the store
// keeps in another form.
type snapImage struct {
	c *Columns
	d *denseBots

	strLens   []uint32 // byte length of each interned string
	strBlob   []byte   // the strings, concatenated
	tgt, ctrl addrCol  // Columns.targets and Columns.nCtrl, packed
}

// imageOf lays the store out for encoding.
func imageOf(s *Store) *snapImage {
	c := s.Cols()
	im := &snapImage{c: c, d: s.denseBots(), tgt: packAddrs(c.targets), ctrl: packAddrs(c.nCtrl)}
	im.strLens = make([]uint32, len(c.strs))
	for i, str := range c.strs {
		im.strLens[i] = uint32(len(str))
		im.strBlob = append(im.strBlob, str...)
	}
	return im
}

// dims returns the row counts a section's payload opens with, in
// snapDimMax order.
func (im *snapImage) dims(sec byte) []int {
	switch sec {
	case secStrings:
		return []int{len(im.strLens), len(im.strBlob)}
	case secTargets:
		return []int{im.tgt.len()}
	case secBotnets:
		return []int{len(im.c.nID)}
	case secBots:
		return []int{im.c.bIP.len()}
	case secAttacks:
		return []int{len(im.c.aID), im.c.NumRefs()}
	default:
		return []int{im.d.ips.len()}
	}
}

// layout is the section table: the columns of section sec in file order,
// bound to where they live in the image, for the row counts dm. Id
// bounds come from the sections before it, which are complete — encoded
// from a store, or decoded and checked — by the time a section is laid
// out.
func (im *snapImage) layout(sec byte, dm []int) []snapCol {
	c, d, n := im.c, im.d, dm[0]
	nStr := len(c.strs)
	switch sec {
	case secStrings:
		return []snapCol{num("lengths", &im.strLens, n), num("bytes", &im.strBlob, dm[1])}
	case secTargets:
		return addrs("targets", &im.tgt, n)
	case secBotnets:
		return append(addrs("nCtrl", &im.ctrl, n),
			num("nID", &c.nID, n),
			ids("nFam", &c.nFam, n, 0, nStr),
			ids("nHash", &c.nHash, n, 0, nStr),
			num("nFirst", &c.nFirst, n),
			num("nLast", &c.nLast, n))
	case secBots:
		return append(addrs("bIP", &c.bIP, n),
			num("bASN", &c.bASN, n),
			ids("bCC", &c.bCC, n, 0, nStr),
			ids("bCity", &c.bCity, n, 0, nStr),
			ids("bOrg", &c.bOrg, n, 0, nStr),
			num("bLat", &c.bLat, n),
			num("bLon", &c.bLon, n),
			num("bLast", &c.bLast, n))
	case secAttacks:
		return []snapCol{
			num("aID", &c.aID, n),
			num("aBotnet", &c.aBotnet, n),
			ids("aFam", &c.aFam, n, 0, nStr),
			num("aCat", &c.aCat, n),
			ids("aTgt", &c.aTgt, n, 0, len(c.targets)),
			num("aStart", &c.aStart, n),
			num("aEnd", &c.aEnd, n),
			num("aASN", &c.aASN, n),
			ids("aCC", &c.aCC, n, 0, nStr),
			ids("aCity", &c.aCity, n, 0, nStr),
			ids("aOrg", &c.aOrg, n, 0, nStr),
			num("aLat", &c.aLat, n),
			num("aLon", &c.aLon, n),
			num("aOff", &c.aOff, n+1),
		}
	default:
		return append(addrs("ips", &d.ips, n),
			ids("refs", &d.refs, c.NumRefs(), 0, n),
			ids("rec", &d.rec, n, -1, c.bIP.len()))
	}
}

// pad8 rounds n up to a multiple of 8.
func pad8(n int64) int64 { return (n + 7) &^ 7 }

// payloadLen returns the exact payload size of a section with nDims
// count words and these columns.
func payloadLen(nDims int, cols []snapCol) int64 {
	n := int64(8 * nDims)
	for _, sc := range cols {
		n += pad8(int64(sc.rows) * int64(sc.col.width()))
	}
	return n
}

// finish runs what a section still owes once its columns are placed and
// range-checked: it converts the three tables the store keeps in another
// form, and checks the orderings the kernels rely on.
func (im *snapImage) finish(sec byte, dm []int) error {
	c, d := im.c, im.d
	switch sec {
	case secStrings:
		// The one copy of an open: strings escape into results that
		// outlive the store, so they never alias the file.
		blob := string(im.strBlob)
		c.strs = make([]string, len(im.strLens))
		off := 0
		for i, n := range im.strLens {
			if int64(n) > int64(len(blob)-off) {
				return fmt.Errorf("string %d runs past the %d string bytes", i, len(blob))
			}
			c.strs[i] = blob[off : off+int(n)]
			off += int(n)
		}
		if off != len(blob) {
			return fmt.Errorf("string lengths cover %d of %d string bytes", off, len(blob))
		}
		if len(c.strs) == 0 || c.strs[0] != "" {
			return errors.New("string table must start with the empty string")
		}
		im.strLens, im.strBlob = nil, nil
	case secTargets:
		c.targets = im.tgt.unpack()
	case secBotnets:
		c.nCtrl = im.ctrl.unpack()
	case secAttacks:
		n := len(c.aID)
		for i := 0; i < n; i++ {
			if c.aEnd[i] < c.aStart[i] {
				return fmt.Errorf("attack row %d ends before it starts", i)
			}
			if i > 0 && (c.aStart[i] < c.aStart[i-1] ||
				(c.aStart[i] == c.aStart[i-1] && c.aID[i] <= c.aID[i-1])) {
				return fmt.Errorf("attack rows not sorted by (start, id) at row %d", i)
			}
			if c.aOff[i+1] < c.aOff[i] {
				return fmt.Errorf("attack row %d has a negative reference span", i)
			}
		}
		if c.aOff[0] != 0 || c.aOff[n] != int64(dm[1]) {
			return fmt.Errorf("attack spans cover [%d, %d), header declares %d references", c.aOff[0], c.aOff[n], dm[1])
		}
	case secDense:
		// Dense ids are canonical: id k first appears only after ids
		// 0..k-1 have, which pins the numbering to first appearance in
		// attack order — the same numbering buildDense derives.
		next := int32(0)
		for _, id := range d.refs {
			if id > next {
				return fmt.Errorf("dense id %d appears before id %d", id, next)
			}
			if id == next {
				next++
			}
		}
		if int(next) != d.ips.len() {
			return fmt.Errorf("dense table has %d ids but only %d are referenced", d.ips.len(), next)
		}
	}
	return nil
}

// WriteSnapshot writes the store's BSCS snapshot to w under a hold. It
// returns ErrStoreClosed for a closed store: encoding reads the columns,
// and on a mapped store those bytes were released by Close.
func WriteSnapshot(w io.Writer, s *Store) error {
	release, ok := s.Hold()
	if !ok {
		return ErrStoreClosed
	}
	defer release()
	_, err := w.Write(EncodeSnapshot(s))
	return err
}

// EncodeSnapshot serializes the store's columnar form in the current
// (v3) layout. The bytes are a pure function of the workload.
func EncodeSnapshot(s *Store) []byte {
	im := imageOf(s)
	var dims [secDense + 1][]int
	var cols [secDense + 1][]snapCol
	size := int64(snapHeaderLen)
	for sec := byte(secStrings); sec <= secDense; sec++ {
		dims[sec] = im.dims(sec)
		cols[sec] = im.layout(sec, dims[sec])
		size += snapFrameLen + payloadLen(len(dims[sec]), cols[sec])
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion, 0, 0, 0)
	for sec := byte(secStrings); sec <= secDense; sec++ {
		hdr := len(buf)
		buf = append(buf, make([]byte, snapFrameLen)...)
		for _, v := range dims[sec] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		for _, sc := range cols[sec] {
			at := len(buf)
			buf = append(buf, sc.col.raw()...)
			if !hostLittle {
				swapCells(buf[at:], sc.col.width())
			}
			for len(buf)%8 != 0 {
				buf = append(buf, 0)
			}
		}
		payload := buf[hdr+snapFrameLen:]
		buf[hdr] = sec
		binary.LittleEndian.PutUint32(buf[hdr+4:], crc32.Checksum(payload, castagnoli))
		binary.LittleEndian.PutUint64(buf[hdr+8:], uint64(len(payload)))
	}
	return buf
}

// ReadSnapshot reads one BSCS snapshot from r and returns a lazy store
// over its columns. When r is a regular file (and mmap is supported and
// not disabled via BOTSCOPE_NO_MMAP), the snapshot bytes are
// memory-mapped and the columns alias the mapping; otherwise they are
// read into one buffer — sized from the file when r is one — that the
// columns alias instead. The attack records of the returned store are
// materialized on demand (see Store.Attacks); a column-native analysis
// run never builds them.
func ReadSnapshot(r io.Reader) (*Store, error) {
	var rest int64
	if f, ok := r.(*os.File); ok {
		if pos, size, ok := fileSpan(f); ok {
			rest = size - pos
			if os.Getenv("BOTSCOPE_NO_MMAP") == "" {
				if s, err, done := readSnapshotMapped(f, pos, size); done {
					return s, err
				}
			}
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, rest+bytes.MinRead))
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	// The buffer is private to this call, so columns may alias it.
	s, _, err := decodeSnapshot(buf.Bytes(), true)
	return s, err
}

// fileSpan returns f's read position and size when f is a regular file
// with bytes left to read.
func fileSpan(f *os.File) (pos, size int64, ok bool) {
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, 0, false
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() || fi.Size() <= pos {
		return 0, 0, false
	}
	return pos, fi.Size(), true
}

// readSnapshotMapped maps f (size bytes) and decodes from pos over the
// mapping. done is false when the file cannot be mapped and the caller
// should fall back to the read path; when done is true the decode
// outcome — success or a decode error identical to the one the read path
// would produce — is final. The store keeps the mapping only when its
// columns alias it; a copying decode (misaligned read position,
// big-endian host) releases it at once.
func readSnapshotMapped(f *os.File, pos, size int64) (s *Store, err error, done bool) {
	m, err := mmapFile(f, size)
	if err != nil {
		return nil, nil, false
	}
	s, aliased, err := decodeSnapshot(m.data[pos:], true)
	if err != nil {
		m.release()
		return nil, err, true
	}
	// Consume the reader like a full read would, so callers that share
	// the file handle see the same position either way.
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		m.release()
		return nil, err, true
	}
	if !aliased {
		m.release()
		return s, nil, true
	}
	s.cols.mmap = m
	s.snapInfo.Mapped = true
	return s, nil, true
}

// decodeSnapshot is the shared decode core. alias permits columns to
// reference data directly (the caller guarantees data is immutable and
// outlives the store); aliased reports whether they do, which also takes
// a little-endian host and an 8-byte-aligned data. Semantic validation
// is skipped when a snapshot with the same section checksums already
// passed it in this process.
func decodeSnapshot(data []byte, alias bool) (s *Store, aliased bool, err error) {
	aliased = alias && hostLittle && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0
	c, crcKey, err := decodeColumns(data, aliased)
	if err != nil {
		return nil, false, err
	}
	s = &Store{cols: c, snapInfo: SnapshotInfo{Version: snapVersion, Bytes: int64(len(data))}}
	if _, ok := validatedSnapshots.Load(crcKey); !ok {
		if err := validateColumns(c, s.denseBots()); err != nil {
			return nil, false, err
		}
		validatedSnapshots.Store(crcKey, struct{}{})
	}
	return s, aliased, nil
}

// decodeColumns checks a snapshot and returns its columns, viewed in
// place or copied. It also returns the concatenated frame headers, the
// validation-cache key.
func decodeColumns(data []byte, view bool) (*Columns, string, error) {
	if len(data) < len(snapMagic) {
		return nil, "", ErrSnapshotTruncated
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, "", ErrSnapshotMagic
	}
	if len(data) == len(snapMagic) {
		return nil, "", snapTruncated("header", len(data))
	}
	if v := data[len(snapMagic)]; v != snapVersion {
		return nil, "", fmt.Errorf("%w: got %d, want %d", ErrSnapshotVersion, v, snapVersion)
	}
	if len(data) < snapHeaderLen {
		return nil, "", snapTruncated("header", len(data))
	}
	if data[5]|data[6]|data[7] != 0 {
		return nil, "", snapCorrupt("header", 5, "nonzero header padding")
	}
	im := &snapImage{c: &Columns{}, d: &denseBots{}}
	key := make([]byte, 0, 6*snapFrameLen)
	off := snapHeaderLen
	for sec := byte(secStrings); sec <= secDense; sec++ {
		name := snapSectionName[sec]
		if len(data)-off < snapFrameLen {
			return nil, "", snapTruncated(name, off)
		}
		h := data[off : off+snapFrameLen]
		if h[0] != sec || h[1]|h[2]|h[3] != 0 {
			return nil, "", snapCorrupt(name, off, "section id %d, want %d (%s)", h[0], sec, name)
		}
		sum, plen := binary.LittleEndian.Uint32(h[4:]), binary.LittleEndian.Uint64(h[8:])
		key = append(key, h...)
		off += snapFrameLen
		if uint64(len(data)-off) < plen {
			return nil, "", snapTruncated(name, off)
		}
		if plen%8 != 0 {
			return nil, "", snapCorrupt(name, off-8, "%s section length %d is not a multiple of 8", name, plen)
		}
		payload := data[off : off+int(plen)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil, "", snapCorrupt(name, off, "%s section checksum mismatch", name)
		}
		if err := im.readSection(sec, payload, off, view); err != nil {
			return nil, "", err
		}
		off += int(plen)
	}
	if off != len(data) {
		return nil, "", snapCorrupt("trailer", off, "%d trailing bytes", len(data)-off)
	}
	im.c.dense = memo.Filled(im.d)
	return im.c, string(key), nil
}

// readSection places and checks one section's columns from its payload
// p, which starts at absolute offset base.
func (im *snapImage) readSection(sec byte, p []byte, base int, view bool) error {
	name := snapSectionName[sec]
	maxes := snapDimMax[sec]
	if len(p) < 8*len(maxes) {
		return snapTruncated(name, base+len(p))
	}
	var dims [2]int
	dm := dims[:len(maxes)]
	for i, max := range maxes {
		v := binary.LittleEndian.Uint64(p[8*i:])
		if v > max {
			// A count the payload cannot hold, like any other short payload.
			return snapTruncated(name, base+8*i)
		}
		dm[i] = int(v)
	}
	cols := im.layout(sec, dm)
	if want := payloadLen(len(dm), cols); want > int64(len(p)) {
		return snapTruncated(name, base+len(p))
	} else if want < int64(len(p)) {
		return snapCorrupt(name, base+int(want), "%d trailing bytes in %s section", int64(len(p))-want, name)
	}
	off := 8 * len(dm)
	for _, sc := range cols {
		w := sc.col.width()
		end := off + sc.rows*w
		if b := p[off:end:end]; view {
			sc.col.view(b)
		} else {
			dst := sc.col.alloc(sc.rows)
			copy(dst, b)
			if !hostLittle {
				swapCells(dst, w)
			}
		}
		for ; end%8 != 0; end++ {
			if p[end] != 0 {
				return snapCorrupt(name, base+end, "nonzero padding after %s column", sc.name)
			}
		}
		if sc.ids != nil {
			for i, v := range *sc.ids {
				if v < sc.lo || v >= sc.lim {
					return snapCorrupt(name, base+off+4*i, "%s id %d out of range [%d, %d)", sc.name, v, sc.lo, sc.lim)
				}
			}
		}
		if sc.addr != nil {
			if i, ok := sc.addr.canonical(); !ok {
				return snapCorrupt(name, base+off+i, "%s: row %d is not a canonical 0/4/16 address", sc.name, i)
			}
		}
		off = end
	}
	if err := im.finish(sec, dm); err != nil {
		return snapCorrupt(name, base, "%v", err)
	}
	return nil
}
