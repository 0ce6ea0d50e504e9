package botscope

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"slices"
	"testing"
	"time"
)

// generatedDigests pin the generator's bytes by (seed, scale): feed is the
// SHA-256 of WriteJSONL over GenerateRaw as json.Encoder wrote it before
// the append encoder, snapshot that of the same generation's BSCS
// snapshot (what botgen -snapshot writes). The snapshot also holds what
// the feed does not: every bot's LastActive and the dense source-IP layer.
// report is the SHA-256 of every experiment rendered at that scale
// (renderAll), in ID order: a change to any table, figure or metric —
// the paper's reference values included — shows here and must be
// re-baselined on purpose.
var generatedDigests = map[generation]struct{ feed, snapshot, report string }{
	{1, 1.0}: {
		"bbd9466a9eb07cbae5c4ebe280e185ac4834d579659fd25d8bbd6476cda20ed3",
		"8a69d2b75fb3d535ac18eb97a0ab3825dfbcaf181d11110c91252fd46b793980",
		"5e5fdfdc36e56bcb5a4ae9ce53544f1ac1223e931b8157b0ba2c19b837e485c9",
	},
	{1, 0.1}: {
		"3ad1e5837ff0580bbd264d1f0f317fff0c9c56cd966c482f4b5c0a3f72d8778f",
		"ee12c1004a66f53835640c8db1bfc999cd4b135160d9265bc4434f5abe704a49",
		"adbf2042f5ce8d57d30a940e7784090e024e04261413e2ae9ec83738c76a43ed",
	},
	{4, 0.1}: {
		"b18babd6765deaf1855e407bf18b4d8390df997632d61728cf83200f2f6e30e0",
		"41d888b38b57a82546462b0807185f262e1084dc0d4a2726d95efbecfbcf6514",
		"789cd597edee7d384bf2aeeff6b3dd84c879494621c2d76933b02634ad91fdbb",
	},
}

type generation struct {
	seed  int64
	scale float64
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reportDigest is the SHA-256 of renderAll's output, experiments in ID
// order.
func reportDigest(out map[string][]byte) string {
	h := sha256.New()
	for _, id := range slices.Sorted(maps.Keys(out)) {
		h.Write(out[id])
	}
	return hex.EncodeToString(h.Sum(nil))
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
	if got, want := sha256Hex(feed.Bytes()), generatedDigests[generation{1, roundTripScale}].feed; got != want {
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

// TestGeneratedBytesPinnedSeed4 holds a second seed's generation to its
// pinned feed, snapshot and report bytes, so a generator or experiment
// change that preserves seed 1 by accident still shows.
func TestGeneratedBytesPinnedSeed4(t *testing.T) {
	if testing.Short() {
		t.Skip("generation skipped in -short mode")
	}
	key := generation{4, 0.1}
	attacks, botnets, bots, err := GenerateRaw(GenerateConfig{Seed: key.seed, Scale: key.scale})
	if err != nil {
		t.Fatalf("GenerateRaw: %v", err)
	}
	var feed bytes.Buffer
	if err := WriteJSONL(&feed, attacks); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	store, err := NewStore(attacks, botnets, bots)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	var snap bytes.Buffer
	if err := WriteSnapshot(&snap, store); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	want := generatedDigests[key]
	if got := sha256Hex(feed.Bytes()); got != want.feed {
		t.Errorf("feed digest %s, want %s", got, want.feed)
	}
	if got := sha256Hex(snap.Bytes()); got != want.snapshot {
		t.Errorf("snapshot digest %s, want %s", got, want.snapshot)
	}
	if got := reportDigest(renderAll(t, store, key.scale)); got != want.report {
		t.Errorf("report digest %s, want %s", got, want.report)
	}
}
