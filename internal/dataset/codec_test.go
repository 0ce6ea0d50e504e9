package dataset

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// errSentinel exercises callback-error propagation in the Decode* tests.
var errSentinel = errors.New("sentinel")

func sampleAttacks() []*Attack {
	a1 := validAttack(1)
	a2 := validAttack(2)
	a2.Family = Pandora
	a2.Category = CategoryUDP
	a2.BotnetID = 9
	a2.TargetIP = netip.MustParseAddr("7.7.7.7")
	a2.Start = t0.Add(3 * time.Hour)
	a2.End = a2.Start.Add(45 * time.Minute)
	a2.BotIPs = []netip.Addr{
		netip.MustParseAddr("6.6.6.6"),
		netip.MustParseAddr("6.6.6.7"),
		netip.MustParseAddr("6.6.6.8"),
	}
	return []*Attack{a1, a2}
}

func attacksEqual(t *testing.T, got, want []*Attack) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.BotnetID != w.BotnetID || g.Family != w.Family ||
			g.Category != w.Category || g.TargetIP != w.TargetIP {
			t.Errorf("record %d identity mismatch: %+v vs %+v", i, g, w)
		}
		if !g.Start.Equal(w.Start) || !g.End.Equal(w.End) {
			t.Errorf("record %d time mismatch: %v-%v vs %v-%v", i, g.Start, g.End, w.Start, w.End)
		}
		if len(g.BotIPs) != len(w.BotIPs) {
			t.Errorf("record %d bot IPs = %d, want %d", i, len(g.BotIPs), len(w.BotIPs))
			continue
		}
		for j := range w.BotIPs {
			if g.BotIPs[j] != w.BotIPs[j] {
				t.Errorf("record %d bot IP %d = %v, want %v", i, j, g.BotIPs[j], w.BotIPs[j])
			}
		}
		if g.TargetASN != w.TargetASN || g.TargetCountry != w.TargetCountry ||
			g.TargetCity != w.TargetCity || g.TargetOrg != w.TargetOrg {
			t.Errorf("record %d geo mismatch", i)
		}
		if g.TargetLat != w.TargetLat || g.TargetLon != w.TargetLon {
			t.Errorf("record %d coords = (%v,%v), want (%v,%v)", i, g.TargetLat, g.TargetLon, w.TargetLat, w.TargetLon)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	want := sampleAttacks()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, want); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(want) {
		t.Errorf("JSONL lines = %d, want %d", lines, len(want))
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	attacksEqual(t, got, want)
}

func TestJSONLBadInput(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{name: "garbage", input: "{not json}\n"},
		{name: "bad id", input: `{"ddos_id":"xx","botnet_id":1,"family":"x","category":"HTTP","target_ip":"1.2.3.4","timestamp":"2012-08-29T00:00:00Z","end_time":"2012-08-29T01:00:00Z","botnet_ips":["5.6.7.8"],"asn":1,"cc":"US","city":"a","org":"b","latitude":1,"longitude":2}` + "\n"},
		{name: "bad category", input: `{"ddos_id":1,"botnet_id":1,"family":"x","category":"NOPE","target_ip":"1.2.3.4","timestamp":"2012-08-29T00:00:00Z","end_time":"2012-08-29T01:00:00Z","botnet_ips":["5.6.7.8"],"asn":1,"cc":"US","city":"a","org":"b","latitude":1,"longitude":2}` + "\n"},
		{name: "bad target ip", input: `{"ddos_id":1,"botnet_id":1,"family":"x","category":"HTTP","target_ip":"zzz","timestamp":"2012-08-29T00:00:00Z","end_time":"2012-08-29T01:00:00Z","botnet_ips":[],"asn":1,"cc":"US","city":"a","org":"b","latitude":1,"longitude":2}` + "\n"},
		{name: "bad timestamp", input: `{"ddos_id":1,"botnet_id":1,"family":"x","category":"HTTP","target_ip":"1.2.3.4","timestamp":"yesterday","end_time":"2012-08-29T01:00:00Z","botnet_ips":[],"asn":1,"cc":"US","city":"a","org":"b","latitude":1,"longitude":2}` + "\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadJSONL(strings.NewReader(tt.input)); err == nil {
				t.Error("bad input accepted")
			}
		})
	}
}

func TestJSONLEmptyInput(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records from empty input", len(got))
	}
}

func TestDecodeJSONLStreaming(t *testing.T) {
	want := sampleAttacks()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got []*Attack
	if err := DecodeJSONL(&buf, func(a *Attack) error {
		got = append(got, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	attacksEqual(t, got, want)
}

func TestDecodeJSONLCallbackError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleAttacks()); err != nil {
		t.Fatal(err)
	}
	sentinel := strings.NewReader(buf.String())
	calls := 0
	err := DecodeJSONL(sentinel, func(*Attack) error {
		calls++
		return errSentinel
	})
	if err != errSentinel {
		t.Errorf("callback error = %v, want sentinel passed through", err)
	}
	if calls != 1 {
		t.Errorf("decoding continued after callback error: %d calls", calls)
	}
}

func TestDecodeJSONLErrStop(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleAttacks()); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err := DecodeJSONL(&buf, func(*Attack) error {
		calls++
		return ErrStop
	})
	if err != nil {
		t.Errorf("ErrStop surfaced as error: %v", err)
	}
	if calls != 1 {
		t.Errorf("decoding continued after ErrStop: %d calls", calls)
	}
}
