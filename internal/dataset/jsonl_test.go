package dataset

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/netip"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

const fastRecord = `{"ddos_id":1,"botnet_id":7,"family":"optima","category":"HTTP","target_ip":"192.0.2.1",` +
	`"timestamp":"2012-08-01T00:00:00Z","end_time":"2012-08-01T01:00:00Z","botnet_ips":["198.51.100.1","198.51.100.2"],` +
	`"asn":64500,"cc":"US","city":"Seattle","org":"Example Net","latitude":47.6,"longitude":-122.3}`

// TestScanRecordGrammar pins which records the scanner takes itself, which
// it leaves to encoding/json, and which it asks more bytes for (DESIGN
// §5). Whatever it does the result must be the reference's;
// FuzzDecodeJSONL's seeds cover that.
func TestScanRecordGrammar(t *testing.T) {
	edit := func(old, new string) string {
		if !strings.Contains(fastRecord, old) {
			t.Fatalf("fastRecord has no %q", old)
		}
		return strings.Replace(fastRecord, old, new, 1)
	}
	upTo := func(s string) string { return fastRecord[:strings.Index(fastRecord, s)+len(s)] }
	tests := []struct {
		name, line string
		want       scanResult
	}{
		{"as written", fastRecord, scanOK},
		{"shuffled keys", `{"longitude":-122.3,` + strings.TrimSuffix(fastRecord[1:], `,"longitude":-122.3}`) + `}`, scanOK},
		{"whitespace", edit(`"asn":64500,`, ` "asn" : 64500 ,`+"\t"), scanOK},
		{"over several lines", strings.ReplaceAll(fastRecord, `,"`, ",\n\t\"") + "\n", scanOK},
		{"trailing text", fastRecord + ` {"next":1}`, scanOK},
		{"ipv6 and mapped sources", edit(`"198.51.100.1"`, `"2001:db8::2","::ffff:198.51.100.7"`), scanOK},
		{"zone offset and fraction", edit(`"2012-08-01T00:00:00Z"`, `"2012-08-01T01:30:00.5+02:00"`), scanOK},
		{"negative zero and exponent", edit(`47.6,"longitude":-122.3`, `-0,"longitude":1.5E+2`), scanOK},
		{"no sources", edit(`["198.51.100.1","198.51.100.2"]`, `[ ]`), scanOK},

		{"escape in org", edit(`Example Net`, `Example \"Net\"`), scanSlow},
		{"non-ascii city", edit(`Seattle`, `Orléans`), scanSlow},
		{"control byte", edit(`Seattle`, "Sea\x01ttle"), scanSlow},
		{"unknown key", edit(`"asn"`, `"as_number"`), scanSlow},
		{"over-long key", `{"` + strings.Repeat("k", 64), scanSlow},
		{"case-variant key", edit(`"ddos_id"`, `"DDOS_ID"`), scanSlow},
		{"duplicate key", edit(`"asn":64500`, `"asn":1,"asn":64500`), scanSlow},
		{"missing key", edit(`"asn":64500,`, ``), scanSlow},
		{"null", edit(`"Example Net"`, `null`), scanSlow},
		{"fraction in an integer", edit(`64500`, `64500.0`), scanSlow},
		{"leading zero", edit(`64500`, `064500`), scanSlow},
		{"nineteen digits", edit(`"ddos_id":1`, `"ddos_id":1000000000000000000`), scanSlow},
		{"botnet_id past uint32", edit(`"botnet_id":7`, `"botnet_id":4294967296`), scanSlow},
		{"float out of range", edit(`47.6`, `1e999`), scanSlow},
		{"unknown category", edit(`"HTTP"`, `"http"`), scanSlow},
		{"leading-zero octet", edit(`198.51.100.1`, `198.51.100.01`), scanSlow},
		{"octet past 255", edit(`192.0.2.1`, `192.0.2.256`), scanSlow},
		{"feb 30", edit(`2012-08-01T00`, `2012-02-30T00`), scanSlow},
		{"utc year before zero", edit(`2012-08-01T00:00:00Z`, `0000-01-01T00:00:00+01:00`), scanSlow},
		{"trailing comma", edit(`-122.3}`, `-122.3,}`), scanSlow},

		// Cut short: only more bytes can tell. What is wrong for good is
		// still wrong at the end of the bytes.
		{"no closing brace", fastRecord[:len(fastRecord)-1], scanMore},
		{"only the brace", `{`, scanMore},
		{"inside a key", upTo(`"botn`), scanMore},
		{"before the colon", upTo(`"botnet_id"`), scanMore},
		{"inside an integer", upTo(`"asn":645`), scanMore},
		{"after the sign", edit(`64500`, `-`)[:strings.Index(fastRecord, `64500`)+1], scanMore},
		{"inside a float", upTo(`"latitude":47.`), scanMore},
		{"inside a string", upTo(`"org":"Exam`), scanMore},
		{"inside an address", upTo(`"target_ip":"192.0.`), scanMore},
		{"inside a time", upTo(`"timestamp":"2012-08`), scanMore},
		{"inside the sources", upTo(`"198.51.100.1",`), scanMore},
		{"leading zero at the end", upTo(`"asn":`) + `06`, scanSlow},
		{"unknown category at the end", upTo(`"category":`) + `"http"`, scanSlow},
		{"bad address at the end", upTo(`"target_ip":`) + `"192.0.2.256"`, scanSlow},
	}
	s := acquireJSONLScanner(strings.NewReader(""))
	defer s.release()
	for _, tc := range tests {
		a, used, got := s.scanRecord([]byte(tc.line))
		if got != tc.want {
			t.Errorf("%s: scan result %d, want %d", tc.name, got, tc.want)
		}
		if got == scanOK && (a == nil || tc.line[used-1] != '}') {
			t.Errorf("%s: used %d bytes, not up to the closing brace", tc.name, used)
		}
	}
}

// TestDecodeJSONLReaders feeds one mixed stream through readers that
// split it differently; the scanner's buffer handling must not show. The
// one-byte reader would also take minutes if a record three buffers long
// were scanned again on every read.
func TestDecodeJSONLReaders(t *testing.T) {
	slow := strings.Replace(fastRecord, `Example Net`, `Example \u0026 Net`, 1)
	long := strings.Replace(fastRecord, `"198.51.100.1"`, `"198.51.100.1"`+strings.Repeat(`,"198.51.100.9"`, 3*jsonlBufSize/16), 1)
	stream := fastRecord + "\n" + slow + "\n\n" + fastRecord + slow + "\n" + long + "\n" + slow + long + "\n" + fastRecord
	want := checkDecodeJSONLAgainstReference(t, stream)
	if len(want) != 8 {
		t.Fatalf("stream decodes to %d records, want 8", len(want))
	}
	readers := map[string]func(io.Reader) io.Reader{
		"one byte":  iotest.OneByteReader,
		"half":      iotest.HalfReader,
		"data+EOF":  iotest.DataErrReader,
		"13 a time": func(r io.Reader) io.Reader { return &chunkReader{r, 13} },
	}
	for name, wrap := range readers {
		i := 0
		err := DecodeJSONL(wrap(strings.NewReader(stream)), func(a *Attack) error {
			if d := diffAttacks(a, want[i]); d != "" {
				t.Errorf("%s: record %d: %s", name, i+1, d)
			}
			i++
			return nil
		})
		if err != nil || i != len(want) {
			t.Errorf("%s: decoded %d of %d records: %v", name, i, len(want), err)
		}
	}

	// A read error surfaces where the reference surfaces it: after the
	// records that were complete, numbered as the next one.
	boom := errors.New("boom")
	failing := func() io.Reader {
		return io.MultiReader(strings.NewReader(fastRecord+"\n"+fastRecord[:40]), iotest.ErrReader(boom))
	}
	n := 0
	got := DecodeJSONL(failing(), func(*Attack) error { n++; return nil })
	ref := referenceDecodeJSONL(failing(), func(*Attack) error { return nil })
	if n != 1 || !errors.Is(got, boom) || got.Error() != ref.Error() {
		t.Errorf("after %d records: %v, reference: %v", n, got, ref)
	}
}

// TestDecodeJSONLManyRecordsNoNewline holds DecodeJSONL to linear time on
// a stream that never breaks a line: 16 MiB of records set apart by a
// space, whole and trickled in. Scanning or moving the rest of the buffer
// once per record made this take ~70 times the reference; the bound is
// relative, so that a slow or -race run moves both sides.
func TestDecodeJSONLManyRecordsNoNewline(t *testing.T) {
	size := 16 << 20
	if testing.Short() {
		size = 4 << 20
	}
	stream := strings.Repeat(fastRecord+" ", size/(len(fastRecord)+1))
	records := size / (len(fastRecord) + 1)
	timed := func(decode func(io.Reader, func(*Attack) error) error, r io.Reader) time.Duration {
		n := 0
		t0 := time.Now()
		if err := decode(r, func(*Attack) error { n++; return nil }); err != nil || n != records {
			t.Fatalf("decoded %d of %d records: %v", n, records, err)
		}
		return time.Since(t0)
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole":      func(r io.Reader) io.Reader { return r },
		"100 a time": func(r io.Reader) io.Reader { return &chunkReader{r, 100} },
		"half":       iotest.HalfReader,
	} {
		ref := timed(referenceDecodeJSONL, wrap(strings.NewReader(stream)))
		got := timed(DecodeJSONL, wrap(strings.NewReader(stream)))
		t.Logf("%s: DecodeJSONL %v, encoding/json reference %v", name, got, ref)
		if got > 5*ref {
			t.Errorf("%s: DecodeJSONL took more than five times the reference", name)
		}
	}
}

// TestDecodeRejectsUnwritableYears: a zone offset can push the UTC year
// out of RFC 3339's four digits. The encoders write UTC and could only
// write such a time as a line no decoder reads back, so the decoders do
// not take it (FuzzDecodeJSONL found the hole).
func TestDecodeRejectsUnwritableYears(t *testing.T) {
	for _, ts := range []string{"0000-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"} {
		line := strings.Replace(fastRecord, `"timestamp":"2012-08-01T00:00:00Z"`, `"timestamp":"`+ts+`"`, 1)
		_, err := ReadJSONL(strings.NewReader(fastRecord + "\n" + line + "\n"))
		if err == nil || !strings.HasPrefix(err.Error(), "dataset: jsonl record 2: timestamp: ") || !strings.Contains(err.Error(), "outside 0000..9999") {
			t.Errorf("jsonl %s: %v", ts, err)
		}
		csv := strings.Replace(sampleCSV(t), "2012-08-02T00:00:00Z", ts, 1)
		if _, err := ReadCSV(strings.NewReader(csv)); err == nil || !strings.Contains(err.Error(), "csv line 3: timestamp: ") {
			t.Errorf("csv %s: %v", ts, err)
		}
	}
	for _, ts := range []string{"0000-01-01T00:00:00Z", "9999-12-31T23:59:59+01:00"} {
		line := strings.Replace(fastRecord, `"timestamp":"2012-08-01T00:00:00Z"`, `"timestamp":"`+ts+`"`, 1)
		if _, err := ReadJSONL(strings.NewReader(line)); err != nil {
			t.Errorf("jsonl %s: %v", ts, err)
		}
	}
}

type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(c.n, len(p))]) }

// TestScannerUnreadAcrossRefill covers the unread path json.Decoder does
// not take today: a tail longer than what the buffer still holds in place.
func TestScannerUnreadAcrossRefill(t *testing.T) {
	s := &jsonlScanner{buf: make([]byte, 8), src: strings.NewReader("abcdefghijklmnopqrstuvwx")}
	var served []byte
	p := make([]byte, 5)
	for len(served) < 11 { // three reads, the last one after a refill
		n, err := s.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		served = append(served, p[:n]...)
	}
	s.unread(served[3:]) // more than the refilled buffer has served
	rest, err := io.ReadAll(s)
	if err != nil || string(rest) != "defghijklmnopqrstuvwx" {
		t.Fatalf("after unread the stream continues %q (%v)", rest, err)
	}
}

// TestWriteJSONLMatchesEncodingJSON holds the append encoder to
// json.Encoder's bytes on the values where the two could part: strings
// that need escaping, floats at the format switch-overs, odd addresses.
func TestWriteJSONLMatchesEncodingJSON(t *testing.T) {
	base := func() *Attack {
		return &Attack{
			ID: 1, BotnetID: 7, Family: Optima, Category: CategoryHTTP,
			TargetIP: netip.MustParseAddr("192.0.2.1"),
			Start:    time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC),
			End:      time.Date(2012, 8, 1, 1, 0, 0, 0, time.UTC),
			BotIPs:   []netip.Addr{netip.MustParseAddr("198.51.100.1")},
		}
	}
	var attacks []*Attack
	for _, s := range []string{
		"", "plain", `quo"te`, `back\slash`, "<script>", "a&b", "tab\there", "nul\x00", "del\x7f",
		"Orléans", "\u2028line", "bad\xffutf8", "emoji😀",
	} {
		a := base()
		a.Family, a.TargetCountry, a.TargetCity, a.TargetOrg = Family(s), s, s, s
		attacks = append(attacks, a)
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 1e21, 9.999999999999999e20, 1e-6, 9.99e-7, 5e-7, 1e-10, 1e100,
		-1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, 47.606209999999997,
	} {
		a := base()
		a.TargetLat, a.TargetLon = f, -f
		attacks = append(attacks, a)
	}
	odd := base()
	odd.Category = Category(99)
	odd.TargetIP = netip.Addr{}
	odd.TargetASN = math.MinInt64
	odd.Start = time.Date(2012, 8, 1, 2, 0, 0, 5, time.FixedZone("", 7200))
	odd.BotIPs = []netip.Addr{
		netip.MustParseAddr("::ffff:198.51.100.7"), netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr(`fe80::1%e"th<0`), {},
	}
	none := base()
	none.BotIPs = nil
	attacks = append(attacks, odd, none)

	var got, want bytes.Buffer
	for _, a := range attacks {
		got.Reset()
		want.Reset()
		if err := WriteJSONL(&got, []*Attack{a}); err != nil {
			t.Fatal(err)
		}
		if err := referenceWriteJSONL(&want, []*Attack{a}); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("wrote %swant  %s", got.String(), want.String())
		}
	}

	// Values JSON cannot carry fail as before, after the records before
	// them were written.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := base()
		bad.ID, bad.TargetLon = 2, f
		got.Reset()
		want.Reset()
		err, refErr := WriteJSONL(&got, []*Attack{base(), bad}), referenceWriteJSONL(&want, []*Attack{base(), bad})
		if err == nil || err.Error() != refErr.Error() || got.String() != want.String() {
			t.Errorf("%v: wrote %q (%v), want %q (%v)", f, got.String(), err, want.String(), refErr)
		}
	}
}
