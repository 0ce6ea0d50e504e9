package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"
)

// snapFixtureStore builds a small workload that exercises the codec's
// corner cases: IPv4 and IPv6 sources and targets, a zero controller
// address, start-time ties, bots referenced by attacks but missing from
// the Botlist, Botlist entries never referenced, duplicate Botlist input
// rows, and empty string attributes.
func snapFixtureStore(t testing.TB) *Store {
	t.Helper()
	base := time.Date(2012, 9, 1, 0, 0, 0, 0, time.UTC)
	ip := func(s string) netip.Addr { return netip.MustParseAddr(s) }
	attacks := []*Attack{
		{
			ID: 3, BotnetID: 7, Family: Optima, Category: CategoryHTTP,
			TargetIP: ip("192.0.2.1"), Start: base, End: base.Add(time.Hour),
			BotIPs:    []netip.Addr{ip("198.51.100.1"), ip("198.51.100.2"), ip("2001:db8::10")},
			TargetASN: 64500, TargetCountry: "US", TargetCity: "Seattle",
			TargetOrg: "Example, Inc", TargetLat: 47.6, TargetLon: -122.3,
		},
		{
			// Same start as attack 3 but a higher id: sorts after it.
			ID: 5, BotnetID: 7, Family: Optima, Category: CategorySYN,
			TargetIP: ip("2001:db8::1"), Start: base, End: base.Add(5 * time.Minute),
			BotIPs:    []netip.Addr{ip("198.51.100.2")},
			TargetASN: 64501, TargetCountry: "CN", TargetCity: "", TargetOrg: "",
			TargetLat: 39.9, TargetLon: 116.4,
		},
		{
			ID: 1, BotnetID: 9, Family: Dirtjumper, Category: CategoryUDP,
			TargetIP: ip("192.0.2.1"), Start: base.Add(time.Minute), End: base.Add(2 * time.Hour),
			BotIPs:    []netip.Addr{ip("203.0.113.9"), ip("198.51.100.1")},
			TargetASN: 64500, TargetCountry: "US", TargetCity: "Seattle",
			TargetOrg: "Example, Inc", TargetLat: 47.6, TargetLon: -122.3,
		},
	}
	botnets := []*Botnet{
		{ID: 7, Family: Optima, Hash: "aabbccdd", ControllerIP: ip("203.0.113.1"),
			FirstSeen: base.Add(-24 * time.Hour), LastSeen: base.Add(48 * time.Hour)},
		{ID: 9, Family: Dirtjumper, Hash: "", ControllerIP: netip.Addr{},
			FirstSeen: base, LastSeen: base},
	}
	bots := []*Bot{
		{IP: ip("198.51.100.1"), ASN: 64496, CountryCode: "DE", City: "Berlin",
			Org: "BotOrg", Lat: 52.5, Lon: 13.4, LastActive: base.Add(30 * time.Minute)},
		{IP: ip("198.51.100.2"), ASN: 64497, CountryCode: "FR", City: "Paris",
			Org: "", Lat: 48.8, Lon: 2.3, LastActive: base},
		// Duplicate Botlist row for the same IP: the later record wins.
		{IP: ip("198.51.100.1"), ASN: 64499, CountryCode: "DE", City: "Hamburg",
			Org: "BotOrg", Lat: 53.5, Lon: 10.0, LastActive: base.Add(time.Hour)},
		// Never referenced by any attack.
		{IP: ip("203.0.113.200"), ASN: 64498, CountryCode: "BR", City: "Recife",
			Org: "IdleOrg", Lat: -8.05, Lon: -34.9, LastActive: base},
	}
	s, err := NewStore(attacks, botnets, bots)
	if err != nil {
		t.Fatalf("fixture store: %v", err)
	}
	return s
}

// csvBytes renders the store's attack list through the CSV codec — the
// repo's canonical record formatting — so two stores can be compared for
// byte-identical record content.
func csvBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s.Attacks()); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := snapFixtureStore(t)
	data := EncodeSnapshot(s)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	if !bytes.Equal(csvBytes(t, s), csvBytes(t, got)) {
		t.Fatalf("attack records differ after snapshot round trip")
	}
	if got.NumAttacks() != s.NumAttacks() || got.NumBots() != s.NumBots() ||
		got.NumBotnets() != s.NumBotnets() || got.NumTargets() != s.NumTargets() {
		t.Fatalf("counts differ: got (%d,%d,%d,%d), want (%d,%d,%d,%d)",
			got.NumAttacks(), got.NumBots(), got.NumBotnets(), got.NumTargets(),
			s.NumAttacks(), s.NumBots(), s.NumBotnets(), s.NumTargets())
	}
	if got.Summary() != s.Summary() {
		t.Fatalf("summary differs:\n got %+v\nwant %+v", got.Summary(), s.Summary())
	}

	for _, id := range []BotnetID{7, 9} {
		wb, ok1 := s.BotnetByID(id)
		gb, ok2 := got.BotnetByID(id)
		if !ok1 || !ok2 {
			t.Fatalf("botnet %d missing: %v vs %v", id, ok1, ok2)
		}
		if wb.ID() != gb.ID() || wb.Family() != gb.Family() || wb.Hash() != gb.Hash() ||
			wb.ControllerIP() != gb.ControllerIP() ||
			!wb.FirstSeen().Equal(gb.FirstSeen()) || !wb.LastSeen().Equal(gb.LastSeen()) {
			t.Fatalf("botnet %d differs after the round trip", id)
		}
	}
	for r := int32(0); r < int32(s.NumBots()); r++ {
		wb, gb := s.Cols().BotRow(r), got.Cols().BotRow(r)
		if wb.IP() != gb.IP() || wb.ASN() != gb.ASN() || wb.CountryCode() != gb.CountryCode() ||
			wb.City() != gb.City() || wb.Org() != gb.Org() || wb.Lat() != gb.Lat() || wb.Lon() != gb.Lon() ||
			!wb.LastActive().Equal(gb.LastActive()) {
			t.Fatalf("bot row %d (%s) differs after the round trip", r, wb.IP())
		}
	}
}

// TestSnapshotDensePreserved pins that the reloaded store carries the
// identical dense bot numbering — ids, reference spans, and record
// resolution — without re-deriving it from the reference arena.
func TestSnapshotDensePreserved(t *testing.T) {
	s := snapFixtureStore(t)
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, have := s.BotDense(), got.BotDense()
	if want.NumIDs() != have.NumIDs() {
		t.Fatalf("dense id count differs: %d vs %d", want.NumIDs(), have.NumIDs())
	}
	for id := int32(0); id < int32(want.NumIDs()); id++ {
		if want.IP(id) != have.IP(id) {
			t.Fatalf("dense id %d maps to %v vs %v", id, want.IP(id), have.IP(id))
		}
		wr, wok := want.Bot(id)
		hr, hok := have.Bot(id)
		if wok != hok {
			t.Fatalf("dense id %d resolution differs", id)
		}
		if wok && (wr.IP() != hr.IP() || wr.ASN() != hr.ASN()) {
			t.Fatalf("dense id %d resolves to different records", id)
		}
	}
	for row := 0; row < s.NumAttacks(); row++ {
		wRefs, hRefs := want.RefsRow(row).Clone(), have.RefsRow(row).Clone()
		if len(wRefs) != len(hRefs) {
			t.Fatalf("attack row %d ref span length differs", row)
		}
		for j := range wRefs {
			if wRefs[j] != hRefs[j] {
				t.Fatalf("attack row %d ref %d differs: %d vs %d", row, j, wRefs[j], hRefs[j])
			}
		}
	}
}

// TestSnapshotDeterministic pins that encoding is a pure function of the
// workload: two encodes of the same store are byte-identical, and an
// encode of the reloaded store is byte-identical to the original bytes.
func TestSnapshotDeterministic(t *testing.T) {
	s := snapFixtureStore(t)
	e1 := EncodeSnapshot(s)
	e2 := EncodeSnapshot(s)
	if !bytes.Equal(e1, e2) {
		t.Fatalf("two encodes of the same store differ")
	}
	got, err := DecodeSnapshot(e1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	e3 := EncodeSnapshot(got)
	if !bytes.Equal(e1, e3) {
		t.Fatalf("encode(decode(x)) != x: %d vs %d bytes", len(e1), len(e3))
	}
}

// snapHeader is the fixed eight bytes a v3 snapshot opens with.
func snapHeader() []byte { return append([]byte(snapMagic), snapVersion, 0, 0, 0) }

// v3Section frames one section payload the way EncodeSnapshot does: the
// row-count words, each column zero-padded to 8, behind a 16-byte frame
// header carrying the payload's CRC-32C and length.
func v3Section(id byte, dims []uint64, cols ...[]byte) []byte {
	var payload []byte
	for _, d := range dims {
		payload = binary.LittleEndian.AppendUint64(payload, d)
	}
	for _, col := range cols {
		payload = append(payload, col...)
		payload = append(payload, make([]byte, pad8(int64(len(payload)))-int64(len(payload)))...)
	}
	return append(sealFrame(id, payload), payload...)
}

func sealFrame(id byte, payload []byte) []byte {
	hdr := make([]byte, snapFrameLen)
	hdr[0] = id
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	return hdr
}

// frameSpan is where one section sits in an encoded snapshot.
type frameSpan struct {
	name         string
	hdr, payload int // offsets of the frame header and of the payload
	plen         int
}

// snapFrames recovers each section's bounds from the encoded headers.
func snapFrames(t testing.TB, data []byte) []frameSpan {
	t.Helper()
	var frames []frameSpan
	off := snapHeaderLen
	for sec := byte(secStrings); sec <= secDense; sec++ {
		plen := int(binary.LittleEndian.Uint64(data[off+8:]))
		frames = append(frames, frameSpan{snapSectionName[sec], off, off + snapFrameLen, plen})
		off += snapFrameLen + plen
	}
	if off != len(data) {
		t.Fatalf("frame walk covered %d of %d bytes", off, len(data))
	}
	return frames
}

// reframe returns data with section sec's payload replaced by
// edit(payload) and its frame header re-sealed, so a test reaches the
// checks that sit behind the checksum.
func reframe(t testing.TB, data []byte, sec byte, edit func(p []byte) []byte) []byte {
	t.Helper()
	f := snapFrames(t, data)[sec-1]
	payload := edit(append([]byte{}, data[f.payload:f.payload+f.plen]...))
	out := append([]byte{}, data[:f.hdr]...)
	out = append(out, sealFrame(sec, payload)...)
	out = append(out, payload...)
	return append(out, data[f.payload+f.plen:]...)
}

// patchCell overwrites cell i of one named column (found through the
// section layout, as the decoder finds it) and re-seals the section.
func patchCell(t testing.TB, data []byte, sec byte, col string, i int, cell []byte) []byte {
	t.Helper()
	s, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("patchCell: %v", err)
	}
	im := imageOf(s)
	dm := im.dims(sec)
	off := 8 * len(dm)
	for _, sc := range im.layout(sec, dm) {
		if sc.name == col {
			if len(cell) != sc.col.width() || i >= sc.rows {
				t.Fatalf("patchCell: %s has %d cells of %d bytes", col, sc.rows, sc.col.width())
			}
			return reframe(t, data, sec, func(p []byte) []byte {
				copy(p[off+i*len(cell):], cell)
				return p
			})
		}
		off += int(pad8(int64(sc.rows * sc.col.width())))
	}
	t.Fatalf("patchCell: no column %q in the %s section", col, snapSectionName[sec])
	return nil
}

func le32(v int32) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(v)) }
func le64(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }

func TestSnapshotRejectsCorrupt(t *testing.T) {
	valid := EncodeSnapshot(snapFixtureStore(t))

	hugeCount := append(snapHeader(), v3Section(secStrings, []uint64{1 << 62, 0})...)
	cases := map[string]struct {
		data []byte
		want error // nil: any error will do
	}{
		"empty":            {[]byte{}, ErrSnapshotTruncated},
		"short magic":      {[]byte("BS"), ErrSnapshotTruncated},
		"bad magic":        {[]byte("BSCX\x01\x00\x00\x00"), ErrSnapshotMagic},
		"bad version":      {append([]byte(snapMagic), 99), ErrSnapshotVersion},
		"version 1":        {append([]byte(snapMagic), 1), ErrSnapshotVersion},
		"version 2":        {append([]byte(snapMagic), 2), ErrSnapshotVersion},
		"overlong varint":  {append([]byte{'B', 'S', 'C', 'S'}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), nil},
		"huge count":       {hugeCount, ErrSnapshotTruncated},
		"trailing garbage": {append(append([]byte{}, valid...), 0xAB), ErrSnapshotCorrupt},
	}
	for name, tc := range cases {
		_, err := DecodeSnapshot(tc.data)
		if err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v is not %v", name, err, tc.want)
		}
	}

	// Every truncation of a valid snapshot must be rejected cleanly.
	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := DecodeSnapshot(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(valid))
		}
	}
}

// TestSnapshotChecksOnEveryOpen walks the checks that v2 made while it
// decoded and v3 makes over columns already in place: each row breaks one
// cell of a valid snapshot behind a correct CRC, and both decode paths
// must refuse it in the named section — on a second open too, when the
// CRC-keyed validation cache could have been consulted.
func TestSnapshotChecksOnEveryOpen(t *testing.T) {
	valid := EncodeSnapshot(snapFixtureStore(t))
	bump := func(sec byte, by int) []byte {
		return reframe(t, valid, sec, func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p, uint64(int(binary.LittleEndian.Uint64(p))+by))
			return p
		})
	}
	cases := []struct {
		name    string
		data    []byte
		section string
		want    error
	}{
		{"string id past the table", patchCell(t, valid, secBotnets, "nFam", 0, le32(99)), "botnets", ErrSnapshotCorrupt},
		{"negative string id", patchCell(t, valid, secBots, "bCity", 1, le32(-1)), "bots", ErrSnapshotCorrupt},
		{"target id past the table", patchCell(t, valid, secAttacks, "aTgt", 2, le32(2)), "attacks", ErrSnapshotCorrupt},
		{"end before start", patchCell(t, valid, secAttacks, "aEnd", 0, le64(1)), "attacks", ErrSnapshotCorrupt},
		{"rows out of start order", patchCell(t, valid, secAttacks, "aStart", 2, le64(2)), "attacks", ErrSnapshotCorrupt},
		{"start tie out of id order", patchCell(t, valid, secAttacks, "aID", 1, le64(2)), "attacks", ErrSnapshotCorrupt},
		{"reference spans not monotone", patchCell(t, valid, secAttacks, "aOff", 1, le64(5)), "attacks", ErrSnapshotCorrupt},
		{"reference spans short of the declared count", patchCell(t, valid, secAttacks, "aOff", 3, le64(5)), "attacks", ErrSnapshotCorrupt},
		{"first span does not start at zero", patchCell(t, valid, secAttacks, "aOff", 0, le64(-1)), "attacks", ErrSnapshotCorrupt},
		{"dense ref past the table", patchCell(t, valid, secDense, "refs", 0, le32(9)), "dense", ErrSnapshotCorrupt},
		{"dense ids not in first-appearance order", patchCell(t, valid, secDense, "refs", 0, le32(1)), "dense", ErrSnapshotCorrupt},
		{"dense id never referenced", patchCell(t, valid, secDense, "refs", 4, le32(0)), "dense", ErrSnapshotCorrupt},
		{"bot row past the Botlist", patchCell(t, valid, secDense, "rec", 0, le32(3)), "dense", ErrSnapshotCorrupt},
		{"bot row below unresolved", patchCell(t, valid, secDense, "rec", 0, le32(-2)), "dense", ErrSnapshotCorrupt},
		{"unknown address tag", patchCell(t, valid, secBots, "bIP tags", 0, []byte{7}), "bots", ErrSnapshotCorrupt},
		{"IPv4 without the mapped prefix", patchCell(t, valid, secDense, "ips", 0, []byte{1}), "dense", ErrSnapshotCorrupt},
		{"bytes under the zero address", patchCell(t, valid, secBotnets, "nCtrl", 16, []byte{1}), "botnets", ErrSnapshotCorrupt},
		{"string lengths past the blob", patchCell(t, valid, secStrings, "lengths", 1, le32(1<<20)), "strings", ErrSnapshotCorrupt},
		{"first string not empty", reframe(t, valid, secStrings, func(p []byte) []byte {
			p[2*8], p[2*8+4] = 1, p[2*8+4]-1 // lengths follow the two counts: move string 1's first byte into string 0
			return p
		}), "strings", ErrSnapshotCorrupt},
		{"nonzero padding", reframe(t, valid, secAttacks, func(p []byte) []byte {
			p[2*8+3*8+16+16+3] = 1 // counts, aID, aBotnet, aFam, then aCat: three cells and five bytes of padding
			return p
		}), "attacks", ErrSnapshotCorrupt},
		{"count larger than the payload", bump(secBots, 1), "bots", ErrSnapshotTruncated},
		{"count smaller than the payload", bump(secBots, -1), "bots", ErrSnapshotCorrupt},
		{"payload length not a multiple of 8", reframe(t, valid, secTargets, func(p []byte) []byte { return append(p, 0) }), "targets", ErrSnapshotCorrupt},
		// The drift a hand-paired codec invites — an encoder that writes a
		// column the decoder has never heard of — cannot be built from one
		// layout table; if the bytes arrive anyway they are refused as
		// trailing, never read as the next column.
		{"a column the layout does not have", reframe(t, valid, secBots, func(p []byte) []byte { return append(p, make([]byte, 8)...) }), "bots", ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		for round := 0; round < 2; round++ {
			for path, decode := range map[string]func([]byte) error{
				"copy": func(b []byte) error { _, err := DecodeSnapshot(b); return err },
				"view": func(b []byte) error { _, _, err := decodeSnapshot(alignedCopy(b), true); return err },
			} {
				err := decode(tc.data)
				var se *SnapshotError
				if !errors.Is(err, tc.want) || !errors.As(err, &se) || se.Section != tc.section {
					t.Errorf("%s (%s path, open %d): error %v, want %v in the %s section", tc.name, path, round+1, err, tc.want, tc.section)
				} else if se.Offset < 0 || se.Offset >= int64(len(tc.data)) {
					t.Errorf("%s (%s path): offset %d outside the %d input bytes", tc.name, path, se.Offset, len(tc.data))
				}
			}
		}
	}
}

// alignedCopy returns a copy of data that starts on an 8-byte boundary,
// which the in-place view needs and a small []byte does not promise.
func alignedCopy(data []byte) []byte {
	words := make([]uint64, (len(data)+7)/8+1)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))[:len(data)]
	copy(buf, data)
	return buf
}

// TestSnapshotViewNeedsAlignment pins that alignment is tested, not
// assumed: the same bytes are viewed in place from an aligned base and
// copied from any other, and the two stores re-encode identically.
func TestSnapshotViewNeedsAlignment(t *testing.T) {
	valid := EncodeSnapshot(snapFixtureStore(t))
	for shift := 0; shift < 8; shift++ {
		buf := alignedCopy(append(make([]byte, shift), valid...))[shift:]
		s, aliased, err := decodeSnapshot(buf, true)
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		if want := hostLittle && shift == 0; aliased != want {
			t.Fatalf("shift %d: aliased = %t, want %t", shift, aliased, want)
		}
		if !bytes.Equal(EncodeSnapshot(s), valid) {
			t.Fatalf("shift %d: re-encoding differs", shift)
		}
	}
	if _, aliased, _ := decodeSnapshot(alignedCopy(valid), false); aliased {
		t.Fatal("DecodeSnapshot's path aliased its caller's bytes")
	}
}

// TestSwapCells pins the one thing a big-endian host does differently.
func TestSwapCells(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	swapCells(b, 1)
	if !bytes.Equal(b, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("width 1 moved bytes: %v", b)
	}
	swapCells(b, 4)
	if !bytes.Equal(b, []byte{4, 3, 2, 1, 8, 7, 6, 5}) {
		t.Fatalf("width 4: %v", b)
	}
	swapCells(b, 8)
	if !bytes.Equal(b, []byte{5, 6, 7, 8, 1, 2, 3, 4}) {
		t.Fatalf("width 8: %v", b)
	}
}

// TestSnapshotVersionGate pins that a future-version snapshot is refused
// with ErrSnapshotVersion rather than misread.
func TestSnapshotVersionGate(t *testing.T) {
	valid := EncodeSnapshot(snapFixtureStore(t))
	bumped := append([]byte{}, valid...)
	bumped[len(snapMagic)] = snapVersion + 1
	_, err := DecodeSnapshot(bumped)
	if err == nil {
		t.Fatalf("future version accepted")
	}
}

// FuzzDecodeSnapshot asserts neither decode path panics on arbitrary
// input, that the in-place view and the copy agree — the same error, or
// stores that re-encode to the same bytes — and that anything accepted
// reaches a stable fixpoint: the re-encoding decodes, and re-encodes to
// the identical bytes with identical entity counts.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range snapshotSeedCorpus(f) {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		viewed, aliased, verr := decodeSnapshot(alignedCopy(data), true)
		if aliased != (verr == nil && hostLittle) {
			t.Fatalf("aligned input: aliased = %t, error %v", aliased, verr)
		}
		if (err == nil) != (verr == nil) || (err != nil && err.Error() != verr.Error()) {
			t.Fatalf("decode paths disagree: copy %v, view %v", err, verr)
		}
		if err != nil {
			return // malformed input rejected cleanly; nothing more to check
		}
		e1 := EncodeSnapshot(s)
		if !bytes.Equal(e1, EncodeSnapshot(viewed)) {
			t.Fatalf("copied and viewed stores re-encode differently")
		}
		s2, err := DecodeSnapshot(e1)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if s2.NumAttacks() != s.NumAttacks() || s2.NumBots() != s.NumBots() ||
			s2.NumBotnets() != s.NumBotnets() || s2.NumTargets() != s.NumTargets() {
			t.Fatalf("round trip changed entity counts")
		}
		e2 := EncodeSnapshot(s2)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("re-encode is not a fixpoint: %d vs %d bytes", len(e1), len(e2))
		}
	})
}

// snapshotSeed is one named seed input for FuzzDecodeSnapshot.
type snapshotSeed struct {
	name string
	data []byte
}

// snapshotSeedCorpus builds the seed inputs: valid snapshots of
// different shapes plus structurally-targeted malformed frames
// (truncations, bad and retired versions, dangling int32 refs behind a
// correct CRC). The same set is written to
// testdata/fuzz/FuzzDecodeSnapshot by TestRegenSnapshotCorpus.
func snapshotSeedCorpus(t testing.TB) []snapshotSeed {
	t.Helper()
	valid := EncodeSnapshot(snapFixtureStore(t))

	empty, err := NewStore(nil, nil, nil)
	if err != nil {
		t.Fatalf("empty store: %v", err)
	}
	validEmpty := EncodeSnapshot(empty)

	// A single-attack store with only IPv4 and no bots/botnets.
	one, err := NewStore([]*Attack{{
		ID: 1, BotnetID: 1, Family: Nitol, Category: CategoryTCP,
		TargetIP:  netip.MustParseAddr("192.0.2.9"),
		Start:     time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC),
		End:       time.Date(2012, 10, 1, 0, 30, 0, 0, time.UTC),
		BotIPs:    []netip.Addr{netip.MustParseAddr("198.51.100.77")},
		TargetLat: 1, TargetLon: 2, TargetCountry: "US", TargetCity: "X", TargetOrg: "Y",
	}}, nil, nil)
	if err != nil {
		t.Fatalf("one-attack store: %v", err)
	}
	validOne := EncodeSnapshot(one)

	// crcMismatch: a valid snapshot with one payload byte flipped, so the
	// strings section checksum no longer matches.
	crcMismatch := append([]byte{}, validOne...)
	crcMismatch[snapHeaderLen+snapFrameLen] ^= 0xFF

	overlong := append([]byte(snapMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	badVersion := append([]byte(snapMagic), 0x63)
	hugeCount := append(snapHeader(), v3Section(secStrings, []uint64{1 << 62, 0})...)

	return []snapshotSeed{
		{"valid", valid},
		{"valid-empty", validEmpty},
		{"valid-one-attack", validOne},
		{"valid-v1", append([]byte(snapMagic), 1)}, // must reject: version 1 has no reader
		{"empty-input", []byte{}},
		{"bad-magic", []byte("BSCXjunkjunk")},
		{"bad-version", badVersion},
		{"truncated-half", append([]byte{}, valid[:len(valid)/2]...)},
		{"truncated-header", append([]byte{}, valid[:6]...)},
		{"overlong-varint", overlong},
		{"huge-count", hugeCount},
		{"dangling-string-id", patchCell(t, valid, secBotnets, "nFam", 0, le32(5))},
		{"dangling-dense-ref", patchCell(t, validOne, secDense, "refs", 0, le32(9))},
		{"crc-mismatch", crcMismatch},
		{"trailing-garbage", append(append([]byte{}, validOne...), 0xAB)},
		{"valid-v2", snapshotV2Empty}, // must reject: version 2's reader left with its writer
	}
}

// snapshotV2Empty is what the v2 encoder wrote for the empty store: the
// varint version byte and six big-endian (id, length, CRC-32C) frames
// over varint payloads. Kept byte for byte as the must-reject input.
var snapshotV2Empty = []byte("BSCS\x02" +
	"\x01\x00\x00\x00\x00\x00\x00\x00\x02\xe2\xc3\xef\xa5\x01\x00" +
	"\x02\x00\x00\x00\x00\x00\x00\x00\x01R}SQ\x00" +
	"\x03\x00\x00\x00\x00\x00\x00\x00\x01R}SQ\x00" +
	"\x04\x00\x00\x00\x00\x00\x00\x00\x01R}SQ\x00" +
	"\x05\x00\x00\x00\x00\x00\x00\x00\x02\xf1aw\xd2\x00\x00" +
	"\x06\x00\x00\x00\x00\x00\x00\x00\x01R}SQ\x00")

// TestSnapshotTruncatedTyped pins the typed decode error: every
// truncation reports ErrSnapshotTruncated, and once the header survives,
// a *SnapshotError naming the section being parsed with an offset inside
// the truncated input.
func TestSnapshotTruncatedTyped(t *testing.T) {
	valid := EncodeSnapshot(snapFixtureStore(t))

	cases := []struct {
		name    string
		cut     int
		section string // "" = no SnapshotError expected (bare sentinel)
	}{
		{"mid-magic", 2, ""},
		{"magic-only", len(snapMagic), "header"},
		{"mid-header", snapHeaderLen - 2, "header"},
	}
	for _, f := range snapFrames(t, valid) {
		cases = append(cases,
			struct {
				name    string
				cut     int
				section string
			}{f.name + "-mid-header", f.hdr + 5, f.name},
			struct {
				name    string
				cut     int
				section string
			}{f.name + "-mid-payload", f.payload + f.plen/2, f.name},
		)
	}
	for _, tc := range cases {
		_, err := DecodeSnapshot(valid[:tc.cut])
		if err == nil {
			t.Fatalf("%s: truncation at %d accepted", tc.name, tc.cut)
		}
		if !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("%s: error %v is not ErrSnapshotTruncated", tc.name, err)
		}
		if tc.section == "" {
			continue
		}
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v carries no *SnapshotError", tc.name, err)
		}
		if se.Section != tc.section {
			t.Fatalf("%s: error names section %q, want %q", tc.name, se.Section, tc.section)
		}
		if se.Offset < 0 || se.Offset > int64(tc.cut) {
			t.Fatalf("%s: offset %d outside truncated input (%d bytes)", tc.name, se.Offset, tc.cut)
		}
	}
}

// TestSnapshotChecksumTyped pins that a payload bit flip is caught by the
// section CRC and reported as a corrupt-snapshot error naming the
// section.
func TestSnapshotChecksumTyped(t *testing.T) {
	valid := EncodeSnapshot(snapFixtureStore(t))
	bad := append([]byte{}, valid...)
	bad[snapHeaderLen+snapFrameLen] ^= 0xFF // first byte of the strings payload
	_, err := DecodeSnapshot(bad)
	if err == nil {
		t.Fatal("corrupted payload accepted")
	}
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("error %v is not ErrSnapshotCorrupt", err)
	}
	var se *SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("error %v carries no *SnapshotError", err)
	}
	if se.Section != "strings" {
		t.Fatalf("error names section %q, want strings", se.Section)
	}
}

// TestRegenSnapshotCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzDecodeSnapshot. Gated behind BOTSCOPE_REGEN_CORPUS=1
// so a codec change regenerates the files deliberately, never as a test
// side effect.
func TestRegenSnapshotCorpus(t *testing.T) {
	if os.Getenv("BOTSCOPE_REGEN_CORPUS") == "" {
		t.Skip("set BOTSCOPE_REGEN_CORPUS=1 to rewrite the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range snapshotSeedCorpus(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.data)
		name := fmt.Sprintf("seed-%02d-%s", i, seed.name)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotSeedCorpusCommitted pins that every generated seed exists
// on disk and decodes (or is rejected) without panicking, so the corpus
// cannot drift from the generator.
func TestSnapshotSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot")
	seeds := snapshotSeedCorpus(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing (run BOTSCOPE_REGEN_CORPUS=1 go test): %v", err)
	}
	if len(entries) < len(seeds) {
		t.Fatalf("seed corpus has %d files, generator produces %d", len(entries), len(seeds))
	}
	for _, seed := range seeds {
		_, _ = DecodeSnapshot(seed.data)
	}
}
