package botscope

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"
	"time"
)

// jsonlFeedDigests are the SHA-256 of WriteJSONL over GenerateRaw(seed 1)
// as json.Encoder wrote it before the append encoder, by scale.
var jsonlFeedDigests = map[float64]string{
	1.0: "bbd9466a9eb07cbae5c4ebe280e185ac4834d579659fd25d8bbd6476cda20ed3",
	0.1: "3ad1e5837ff0580bbd264d1f0f317fff0c9c56cd966c482f4b5c0a3f72d8778f",
}

// TestJSONLFeedPinned holds the JSONL codec to the generated feed: the
// encoder writes it byte for byte as encoding/json did, and the scanner
// reads every field of every record back (times to the second, which is
// all RFC 3339 keeps of them).
func TestJSONLFeedPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale feed skipped in -short mode")
	}
	attacks, _, _, err := GenerateRaw(GenerateConfig{Seed: 1, Scale: roundTripScale})
	if err != nil {
		t.Fatalf("GenerateRaw: %v", err)
	}
	var feed bytes.Buffer
	if err := WriteJSONL(&feed, attacks); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sum := sha256.Sum256(feed.Bytes())
	if got, want := hex.EncodeToString(sum[:]), jsonlFeedDigests[roundTripScale]; got != want {
		t.Errorf("feed digest %s, want %s", got, want)
	}

	i := 0
	err = DecodeJSONL(&feed, func(got *Attack) error {
		if i >= len(attacks) {
			t.Fatalf("decoded more than the %d records written", len(attacks))
		}
		want := attacks[i]
		i++
		same := got.ID == want.ID && got.BotnetID == want.BotnetID && got.Family == want.Family &&
			got.Category == want.Category && got.TargetIP == want.TargetIP &&
			got.Start.Equal(want.Start.Truncate(time.Second)) && got.End.Equal(want.End.Truncate(time.Second)) &&
			slices.Equal(got.BotIPs, want.BotIPs) &&
			got.TargetASN == want.TargetASN && got.TargetCountry == want.TargetCountry &&
			got.TargetCity == want.TargetCity && got.TargetOrg == want.TargetOrg &&
			got.TargetLat == want.TargetLat && got.TargetLon == want.TargetLon
		if !same {
			g, w := *got, *want
			g.BotIPs, w.BotIPs = nil, nil // compared above; too long to print
			t.Fatalf("record %d read back as %+v, want %+v to the second", i, g, w)
		}
		return nil
	})
	if err != nil || i != len(attacks) {
		t.Fatalf("decoded %d of %d records: %v", i, len(attacks), err)
	}
}
