package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// fuzzSeedAttacks returns a small deterministic corpus of encoded datasets
// so the fuzzers start from well-formed inputs and mutate outward.
func fuzzSeedAttacks(t testing.TB) []*Attack {
	t.Helper()
	attacks, err := ReadCSV(strings.NewReader(sampleCSV(t)))
	if err != nil {
		t.Fatalf("seed corpus: %v", err)
	}
	return attacks
}

// sampleCSV builds a tiny valid CSV document covering the corner cases the
// decoder branches on: empty bot-IP column, IPv6 targets, quoted org names.
func sampleCSV(t testing.TB) string {
	t.Helper()
	return strings.Join([]string{
		"ddos_id,botnet_id,family,category,target_ip,timestamp,end_time,botnet_ips,asn,cc,city,org,latitude,longitude",
		`1,7,optima,HTTP,192.0.2.1,2012-08-01T00:00:00Z,2012-08-01T01:00:00Z,198.51.100.1;198.51.100.2,64500,US,Seattle,"Example, Inc",47.600000,-122.300000`,
		"2,9,dirtjumper,SYN,2001:db8::1,2012-08-02T00:00:00Z,2012-08-02T00:05:00Z,,64501,CN,Beijing,ExampleNet,39.900000,116.400000",
	}, "\n") + "\n"
}

// FuzzDecodeCSV asserts DecodeCSV never panics on arbitrary input, and that
// any input it accepts survives a write/decode round trip.
func FuzzDecodeCSV(f *testing.F) {
	f.Add(sampleCSV(f))
	f.Add("")
	f.Add("ddos_id,botnet_id\n1,2\n")
	f.Add("\xff\xfe\x00garbage")
	var buf bytes.Buffer
	if err := WriteCSV(&buf, fuzzSeedAttacks(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())

	f.Fuzz(func(t *testing.T, data string) {
		var decoded []*Attack
		err := DecodeCSV(strings.NewReader(data), func(a *Attack) error {
			decoded = append(decoded, a)
			return nil
		})
		if err != nil {
			return // malformed input rejected cleanly; nothing more to check
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, decoded); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		var again []*Attack
		if err := DecodeCSV(&out, func(a *Attack) error {
			again = append(again, a)
			return nil
		}); err != nil {
			t.Fatalf("decode of re-encoded output failed: %v", err)
		}
		if len(again) != len(decoded) {
			t.Fatalf("round trip changed attack count: %d -> %d", len(decoded), len(again))
		}
	})
}

// referenceDecodeJSONL is DecodeJSONL as it was before the scanner: one
// json.Decoder over the whole stream into attackJSON, then attack(). The
// scanner's own fallback decodes single values the same way; this keeps
// the whole-stream loop so the two can be compared end to end.
func referenceDecodeJSONL(r io.Reader, fn func(*Attack) error) error {
	dec := json.NewDecoder(r)
	for n := 1; ; n++ {
		var rec attackJSON
		if err := dec.Decode(&rec); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("dataset: decode jsonl record %d: %w", n, err)
		}
		a, err := rec.attack()
		if err != nil {
			return fmt.Errorf("dataset: jsonl record %d: %w", n, err)
		}
		if err := fn(a); err != nil {
			return err
		}
	}
}

// diffAttacks describes the first field in which got differs from want,
// or returns "". Times must agree on the instant and on the zone they
// print in; BotIPs on nil-ness as well as content.
func diffAttacks(got, want *Attack) string {
	sameTime := func(g, w time.Time) bool {
		gName, gOff := g.Zone()
		wName, wOff := w.Zone()
		return g.Equal(w) && g.Location().String() == w.Location().String() && gName == wName && gOff == wOff
	}
	switch {
	case got.ID != want.ID:
		return fmt.Sprintf("ID %d, want %d", got.ID, want.ID)
	case got.BotnetID != want.BotnetID:
		return fmt.Sprintf("BotnetID %d, want %d", got.BotnetID, want.BotnetID)
	case got.Family != want.Family:
		return fmt.Sprintf("Family %q, want %q", got.Family, want.Family)
	case got.Category != want.Category:
		return fmt.Sprintf("Category %v, want %v", got.Category, want.Category)
	case got.TargetIP != want.TargetIP:
		return fmt.Sprintf("TargetIP %v, want %v", got.TargetIP, want.TargetIP)
	case !sameTime(got.Start, want.Start):
		return fmt.Sprintf("Start %v (%v), want %v (%v)", got.Start, got.Start.Location(), want.Start, want.Start.Location())
	case !sameTime(got.End, want.End):
		return fmt.Sprintf("End %v (%v), want %v (%v)", got.End, got.End.Location(), want.End, want.End.Location())
	case (got.BotIPs == nil) != (want.BotIPs == nil):
		return fmt.Sprintf("BotIPs nil=%v, want nil=%v", got.BotIPs == nil, want.BotIPs == nil)
	case !slices.Equal(got.BotIPs, want.BotIPs):
		return fmt.Sprintf("BotIPs %v, want %v", got.BotIPs, want.BotIPs)
	case got.TargetASN != want.TargetASN:
		return fmt.Sprintf("TargetASN %d, want %d", got.TargetASN, want.TargetASN)
	case got.TargetCountry != want.TargetCountry:
		return fmt.Sprintf("TargetCountry %q, want %q", got.TargetCountry, want.TargetCountry)
	case got.TargetCity != want.TargetCity:
		return fmt.Sprintf("TargetCity %q, want %q", got.TargetCity, want.TargetCity)
	case got.TargetOrg != want.TargetOrg:
		return fmt.Sprintf("TargetOrg %q, want %q", got.TargetOrg, want.TargetOrg)
	case math.Float64bits(got.TargetLat) != math.Float64bits(want.TargetLat):
		return fmt.Sprintf("TargetLat %v, want %v", got.TargetLat, want.TargetLat)
	case math.Float64bits(got.TargetLon) != math.Float64bits(want.TargetLon):
		return fmt.Sprintf("TargetLon %v, want %v", got.TargetLon, want.TargetLon)
	}
	return ""
}

// checkDecodeJSONLAgainstReference decodes data with DecodeJSONL and with
// the reference and fails unless they accept the same records with the
// same fields and then stop with the same error — record number and
// message included.
func checkDecodeJSONLAgainstReference(t *testing.T, data string) []*Attack {
	t.Helper()
	collect := func(decode func(io.Reader, func(*Attack) error) error) ([]*Attack, error) {
		var out []*Attack
		err := decode(strings.NewReader(data), func(a *Attack) error {
			out = append(out, a)
			return nil
		})
		return out, err
	}
	got, gotErr := collect(DecodeJSONL)
	want, wantErr := collect(referenceDecodeJSONL)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeJSONL error %v, reference error %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("DecodeJSONL delivered %d records, reference %d", len(got), len(want))
	}
	for i := range got {
		if d := diffAttacks(got[i], want[i]); d != "" {
			t.Fatalf("record %d: %s", i+1, d)
		}
	}
	return got
}

// FuzzDecodeJSONL is differential: on every input DecodeJSONL must agree
// with the encoding/json reference (see the check above), and input both
// accept must survive an encode/decode round trip through WriteJSONL,
// itself compared with the json.Encoder reference.
func FuzzDecodeJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, fuzzSeedAttacks(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("{}\n")
	f.Add("{\"ddos_id\":1}\nnot json\n")
	f.Add("null\n")

	f.Fuzz(func(t *testing.T, data string) {
		decoded := checkDecodeJSONLAgainstReference(t, data)
		var out, ref bytes.Buffer
		err, refErr := WriteJSONL(&out, decoded), referenceWriteJSONL(&ref, decoded)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !bytes.Equal(out.Bytes(), ref.Bytes()) {
			t.Fatalf("WriteJSONL wrote %q (%v), reference %q (%v)", out.Bytes(), err, ref.Bytes(), refErr)
		}
		if err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		again := checkDecodeJSONLAgainstReference(t, out.String())
		if len(again) != len(decoded) {
			t.Fatalf("round trip changed attack count: %d -> %d", len(decoded), len(again))
		}
	})
}

// referenceWriteJSONL is WriteJSONL as it was before the append encoder:
// json.Encoder over attackJSON.
func referenceWriteJSONL(w io.Writer, attacks []*Attack) error {
	enc := json.NewEncoder(w)
	for _, a := range attacks {
		ips := make([]string, len(a.BotIPs))
		for i, ip := range a.BotIPs {
			ips[i] = ip.String()
		}
		rec := attackJSON{
			ID:        uint64(a.ID),
			BotnetID:  uint32(a.BotnetID),
			Family:    string(a.Family),
			Category:  a.Category.String(),
			TargetIP:  a.TargetIP.String(),
			Timestamp: a.Start.UTC().Format(time.RFC3339),
			EndTime:   a.End.UTC().Format(time.RFC3339),
			BotIPs:    ips,
			ASN:       a.TargetASN,
			CC:        a.TargetCountry,
			City:      a.TargetCity,
			Org:       a.TargetOrg,
			Latitude:  a.TargetLat,
			Longitude: a.TargetLon,
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("dataset: encode attack %d: %w", a.ID, err)
		}
	}
	return nil
}
