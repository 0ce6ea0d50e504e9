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

	"botscope/internal/binenc"
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
			s.NumAttacks(), s.NumBots(), s.NumBotnets(), s.NumBotnets())
	}
	if got.Summary() != s.Summary() {
		t.Fatalf("summary differs:\n got %+v\nwant %+v", got.Summary(), s.Summary())
	}

	for _, id := range []BotnetID{7, 9} {
		wb, ok1 := s.Botnet(id)
		gb, ok2 := got.Botnet(id)
		if !ok1 || !ok2 {
			t.Fatalf("botnet %d missing: %v vs %v", id, ok1, ok2)
		}
		if wb.ID != gb.ID || wb.Family != gb.Family || wb.Hash != gb.Hash ||
			wb.ControllerIP != gb.ControllerIP ||
			!wb.FirstSeen.Equal(gb.FirstSeen) || !wb.LastSeen.Equal(gb.LastSeen) {
			t.Fatalf("botnet %d differs: got %+v, want %+v", id, gb, wb)
		}
	}
	for _, ipStr := range []string{"198.51.100.1", "198.51.100.2", "203.0.113.200", "203.0.113.9"} {
		ip := netip.MustParseAddr(ipStr)
		wb, ok1 := s.Bot(ip)
		gb, ok2 := got.Bot(ip)
		if ok1 != ok2 {
			t.Fatalf("bot %s presence differs: %v vs %v", ip, ok1, ok2)
		}
		if !ok1 {
			continue
		}
		if wb.IP != gb.IP || wb.ASN != gb.ASN || wb.CountryCode != gb.CountryCode ||
			wb.City != gb.City || wb.Org != gb.Org || wb.Lat != gb.Lat || wb.Lon != gb.Lon ||
			!wb.LastActive.Equal(gb.LastActive) {
			t.Fatalf("bot %s differs: got %+v, want %+v", ip, gb, wb)
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
		wRefs, hRefs := want.RefsRow(row), have.RefsRow(row)
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

// TestSnapshotSubsetAfterReload exercises the record views of a decoded
// store through the filter path, which touches Bot(), Botnet(), and
// NewStore re-construction from arena-backed records.
func TestSnapshotSubsetAfterReload(t *testing.T) {
	s := snapFixtureStore(t)
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, err := s.Subset(Filter{Families: []Family{Optima}})
	if err != nil {
		t.Fatalf("subset original: %v", err)
	}
	have, err := got.Subset(Filter{Families: []Family{Optima}})
	if err != nil {
		t.Fatalf("subset reloaded: %v", err)
	}
	if !bytes.Equal(csvBytes(t, want), csvBytes(t, have)) {
		t.Fatalf("subset records differ after reload")
	}
	if want.NumBots() != have.NumBots() || want.NumBotnets() != have.NumBotnets() {
		t.Fatalf("subset carry-over counts differ")
	}
}

func TestSnapshotRejectsCorrupt(t *testing.T) {
	valid := EncodeSnapshot(snapFixtureStore(t))

	hugeCount := append(append([]byte(snapMagic), snapVersion), v2Section(secStrings, func(w *binenc.Writer) {
		w.Uvarint(1 << 62)
	})...)
	cases := map[string]struct {
		data []byte
		want error // nil: any error will do
	}{
		"empty":            {[]byte{}, ErrSnapshotTruncated},
		"short magic":      {[]byte("BS"), ErrSnapshotTruncated},
		"bad magic":        {[]byte("BSCX\x01\x00\x00\x00"), ErrSnapshotMagic},
		"bad version":      {append([]byte(snapMagic), 99), ErrSnapshotVersion},
		"version 1":        {append([]byte(snapMagic), 1), ErrSnapshotVersion},
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

// FuzzDecodeSnapshot asserts the snapshot decoder never panics on
// arbitrary input, and that anything it accepts reaches a stable
// fixpoint: re-encoding the decoded store succeeds, re-decodes, and
// re-encodes to the identical bytes with identical entity counts.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range snapshotSeedCorpus(f) {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return // malformed input rejected cleanly; nothing more to check
		}
		e1 := EncodeSnapshot(s)
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
// (truncations, bad version, overlong varints, dangling int32 refs).
// The same set is written to testdata/fuzz/FuzzDecodeSnapshot by
// TestRegenSnapshotCorpus.
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

	// danglingStrID: a v2 frame sequence whose first botnet family id
	// points past the string table.
	dangling := func() []byte {
		buf := []byte(snapMagic)
		buf = append(buf, snapVersion)
		buf = append(buf, v2Section(secStrings, func(w *binenc.Writer) {
			w.Uvarint(1) // one string
			w.Str("")
		})...)
		buf = append(buf, v2Section(secTargets, func(w *binenc.Writer) {
			w.Uvarint(0) // no targets
		})...)
		buf = append(buf, v2Section(secBotnets, func(w *binenc.Writer) {
			w.Uvarint(1) // one botnet
			w.Uvarint(7) // id
			w.Uvarint(5) // family id 5: out of range
			w.Uvarint(0)
			w.Addr(netip.Addr{})
			w.Varint(0)
			w.Varint(0)
		})...)
		return buf
	}()

	// danglingDenseRef: a valid-prefix v2 frame sequence whose dense ref
	// indexes past the dense table.
	danglingDense := func() []byte {
		buf := []byte(snapMagic)
		buf = append(buf, snapVersion)
		buf = append(buf, v2Section(secStrings, func(w *binenc.Writer) {
			w.Uvarint(4)
			for _, s := range []string{"", "nitol", "US", "X"} {
				w.Str(s)
			}
		})...)
		buf = append(buf, v2Section(secTargets, func(w *binenc.Writer) {
			w.Uvarint(1)
			w.Addr(netip.MustParseAddr("192.0.2.9"))
		})...)
		buf = append(buf, v2Section(secBotnets, func(w *binenc.Writer) {
			w.Uvarint(0) // no botnets
		})...)
		buf = append(buf, v2Section(secBots, func(w *binenc.Writer) {
			w.Uvarint(0) // no bots
		})...)
		buf = append(buf, v2Section(secAttacks, func(w *binenc.Writer) {
			w.Uvarint(1) // one attack
			w.Uvarint(1) // one ref
			w.Uvarint(1) // id
			w.Uvarint(1) // botnet
			w.Uvarint(1) // family
			w.Buf = append(w.Buf, byte(CategoryTCP))
			w.Uvarint(0) // target
			w.Varint(time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC).UnixNano())
			w.Uvarint(uint64(30 * time.Minute))
			w.Varint(0)  // asn
			w.Uvarint(2) // cc
			w.Uvarint(3) // city
			w.Uvarint(0) // org
			w.F64(1)
			w.F64(2)
			w.Uvarint(1) // span length
		})...)
		buf = append(buf, v2Section(secDense, func(w *binenc.Writer) {
			w.Uvarint(1) // one dense id
			w.Addr(netip.MustParseAddr("198.51.100.77"))
			w.Uvarint(9) // ref -> dense id 9: out of range
			w.Uvarint(0) // rec
		})...)
		return buf
	}()

	// crcMismatch: a valid snapshot with one payload byte flipped, so the
	// strings section checksum no longer matches.
	crcMismatch := append([]byte{}, validOne...)
	crcMismatch[len(snapMagic)+1+13] ^= 0xFF

	overlong := append([]byte(snapMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	badVersion := append([]byte(snapMagic), 0x63)
	hugeCount := append(append([]byte(snapMagic), 1), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)

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
		{"dangling-string-id", dangling},
		{"dangling-dense-ref", danglingDense},
		{"crc-mismatch", crcMismatch},
		{"trailing-garbage", append(append([]byte{}, validOne...), 0xAB)},
	}
}

// v2Section frames one section payload the way EncodeSnapshot does:
// id byte, payload length, CRC-32C, payload.
func v2Section(id byte, build func(w *binenc.Writer)) []byte {
	w := &binenc.Writer{}
	build(w)
	hdr := make([]byte, 13)
	hdr[0] = id
	binary.BigEndian.PutUint64(hdr[1:9], uint64(len(w.Buf)))
	binary.BigEndian.PutUint32(hdr[9:13], crc32.Checksum(w.Buf, castagnoli))
	return append(hdr, w.Buf...)
}

// TestSnapshotTruncatedTyped pins the typed decode error: every
// truncation reports ErrSnapshotTruncated, and once the header survives,
// a *SnapshotError naming the section being parsed with an offset inside
// the truncated input.
func TestSnapshotTruncatedTyped(t *testing.T) {
	valid := EncodeSnapshot(snapFixtureStore(t))

	// Recover each section's frame bounds from the encoded headers.
	type frameSpan struct {
		name         string
		hdr, payload int // offsets of the header and payload start
		plen         int
	}
	var frames []frameSpan
	off := len(snapMagic) + 1
	for sec := byte(secStrings); sec <= secDense; sec++ {
		plen := int(binary.BigEndian.Uint64(valid[off+1 : off+9]))
		frames = append(frames, frameSpan{snapSectionName[sec], off, off + 13, plen})
		off += 13 + plen
	}
	if off != len(valid) {
		t.Fatalf("frame walk covered %d of %d bytes", off, len(valid))
	}

	cases := []struct {
		name    string
		cut     int
		section string // "" = no SnapshotError expected (bare sentinel)
	}{
		{"mid-magic", 2, ""},
		{"magic-only", len(snapMagic), "header"},
	}
	for _, f := range frames {
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
	bad[len(snapMagic)+1+13] ^= 0xFF // first byte of the strings payload
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
