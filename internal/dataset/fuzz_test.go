package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"
)

// fuzzSeedAttacks returns two records covering the corner cases the
// decoder branches on: an empty source list, an IPv6 target, and an
// organization name with a comma.
func fuzzSeedAttacks() []*Attack {
	day := time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)
	return []*Attack{{
		ID: 1, BotnetID: 7, Family: Optima, Category: CategoryHTTP,
		TargetIP: netip.MustParseAddr("192.0.2.1"), Start: day, End: day.Add(time.Hour),
		BotIPs:    []netip.Addr{netip.MustParseAddr("198.51.100.1"), netip.MustParseAddr("198.51.100.2")},
		TargetASN: 64500, TargetCountry: "US", TargetCity: "Seattle", TargetOrg: "Example, Inc",
		TargetLat: 47.6, TargetLon: -122.3,
	}, {
		ID: 2, BotnetID: 9, Family: Dirtjumper, Category: CategorySYN,
		TargetIP: netip.MustParseAddr("2001:db8::1"), Start: day.Add(24 * time.Hour), End: day.Add(24*time.Hour + 5*time.Minute),
		TargetASN: 64501, TargetCountry: "CN", TargetCity: "Beijing", TargetOrg: "ExampleNet",
		TargetLat: 39.9, TargetLon: 116.4,
	}}
}

// referenceDecodeJSONL is DecodeJSONL as it was before the scanner: one
// json.Decoder over the whole stream, each value by referenceRecord.
func referenceDecodeJSONL(r io.Reader, fn func(*Attack) error) error {
	dec := json.NewDecoder(r)
	for n := 1; ; n++ {
		a, err := referenceRecord(dec, n)
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
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

// keyOf is the projection DecodeJSONLKeys delivers: a's seven key fields,
// with nil BotIPs and zero target geolocation.
func keyOf(a *Attack) *Attack {
	return &Attack{ID: a.ID, BotnetID: a.BotnetID, Family: a.Family, Category: a.Category,
		TargetIP: a.TargetIP, Start: a.Start, End: a.End}
}

// checkDecodeJSONLKeys holds DecodeJSONLKeys to DecodeJSONL on data: the
// key of each record DecodeJSONL delivers, in order, up to the first that
// fails Validate, then exactly that record's Validate error — or, when
// none fails, DecodeJSONL's own result.
func checkDecodeJSONLKeys(t *testing.T, data string) {
	t.Helper()
	var want, got []*Attack
	wantErr := DecodeJSONL(strings.NewReader(data), func(a *Attack) error {
		if err := a.Validate(); err != nil {
			return err
		}
		want = append(want, keyOf(a))
		return nil
	})
	gotErr := DecodeJSONLKeys(strings.NewReader(data), func(a *Attack) error {
		got = append(got, a)
		return nil
	})
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeJSONLKeys error %v, want %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("DecodeJSONLKeys delivered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if d := diffAttacks(got[i], want[i]); d != "" {
			t.Fatalf("key of record %d: %s", i+1, d)
		}
	}
}

// FuzzDecodeJSONL is differential: on every input DecodeJSONL must agree
// with the encoding/json reference (see the check above) and
// DecodeJSONLKeys with DecodeJSONL, and input both accept must survive an
// encode/decode round trip through WriteJSONL, itself compared with the
// json.Encoder reference.
func FuzzDecodeJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, fuzzSeedAttacks()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("{}\n")
	f.Add("{\"ddos_id\":1}\nnot json\n")
	f.Add("null\n")
	// Records DecodeJSONLKeys refuses after the one before: out-of-range
	// coordinates; a zoned source the slow path decodes.
	f.Add(fastRecord + "\n" + strings.Replace(fastRecord, `47.6`, `91`, 1) + "\n")
	f.Add(fastRecord + strings.NewReplacer(`Example Net`, `Example \"Net\"`, `198.51.100.2`, `fe80::2%eth0`).Replace(fastRecord))
	// Near-quads, one edit from a source the dotted-quad kernel takes.
	for _, near := range []string{
		"198.51.100.02", "198.51.100.256", "198.51.100", "198.51.100.2.5", "198..51.100",
		"198.51.100.2 ", "1985110012345678", "::198.51.100.2", "198.51.100.2%eth0",
	} {
		f.Add(fastRecord + "\n" + strings.Replace(fastRecord, `"198.51.100.2"`, `"`+near+`"`, 1) + "\n")
	}
	// A source cut by the end of the first read, inside the quad and
	// before its closing quote; a source list the first read cuts.
	at := strings.Index(fastRecord, `198.51.100.2`)
	for _, cut := range []int{4, len(`198.51.100.2`)} {
		f.Add(strings.Repeat(" ", jsonlBufSize-at-cut) + fastRecord + "\n")
	}
	f.Add(strings.Replace(fastRecord, `"198.51.100.2"`, strings.Repeat(`"198.51.100.9",`, jsonlBufSize/15)+`"198.51.100.2"`, 1) + "\n")
	// Coordinates at the edges of the range check a keys scan makes
	// without converting them.
	for _, v := range []string{"90", "-90", "89.99999999999999999", "90.0000000000001", "8.9e1", "9.1e1", "-0", "089"} {
		f.Add(fastRecord + "\n" + strings.Replace(fastRecord, `"latitude":47.6`, `"latitude":`+v, 1) + "\n")
	}
	for _, v := range []string{"180", "-180", "179.99999999999999999", "-180.0000000000001", "1.8E+2", "-0", "0180"} {
		f.Add(fastRecord + "\n" + strings.Replace(fastRecord, `"longitude":-122.3`, `"longitude":`+v, 1) + "\n")
	}

	f.Fuzz(func(t *testing.T, data string) {
		decoded := checkDecodeJSONLAgainstReference(t, data)
		checkDecodeJSONLKeys(t, data)
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
