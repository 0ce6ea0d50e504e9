package dataset

import (
	"net/netip"
	"slices"
	"testing"
	"time"
)

var t0 = time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC)

// validAttack builds a minimal valid attack for mutation in tests.
func validAttack(id DDoSID) *Attack {
	return &Attack{
		ID:            id,
		BotnetID:      1,
		Family:        Dirtjumper,
		Category:      CategoryHTTP,
		TargetIP:      netip.MustParseAddr("5.5.5.5"),
		Start:         t0,
		End:           t0.Add(time.Hour),
		BotIPs:        []netip.Addr{netip.MustParseAddr("6.6.6.6")},
		TargetASN:     1234,
		TargetCountry: "RU",
		TargetCity:    "Moscow",
		TargetOrg:     "Moscow Hosting 1",
		TargetLat:     55.76,
		TargetLon:     37.62,
	}
}

func TestCategoryString(t *testing.T) {
	tests := []struct {
		cat  Category
		want string
	}{
		{cat: CategoryHTTP, want: "HTTP"},
		{cat: CategoryTCP, want: "TCP"},
		{cat: CategoryUDP, want: "UDP"},
		{cat: CategoryUndetermined, want: "UNDETERMINED"},
		{cat: CategoryICMP, want: "ICMP"},
		{cat: CategoryUnknown, want: "UNKNOWN"},
		{cat: CategorySYN, want: "SYN"},
		{cat: Category(0), want: "Category(0)"},
	}
	for _, tt := range tests {
		if got := tt.cat.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.cat), got, tt.want)
		}
	}
}

func TestParseCategoryRoundTrip(t *testing.T) {
	for _, c := range Categories {
		got, err := ParseCategory(c.String())
		if err != nil {
			t.Errorf("ParseCategory(%q): %v", c.String(), err)
			continue
		}
		if got != c {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
	if _, err := ParseCategory("BOGUS"); err == nil {
		t.Error("ParseCategory(BOGUS) succeeded, want error")
	}
}

func TestConnectionOriented(t *testing.T) {
	oriented := []Category{CategoryHTTP, CategoryTCP, CategorySYN}
	for _, c := range oriented {
		if !c.ConnectionOriented() {
			t.Errorf("%v should be connection oriented", c)
		}
	}
	for _, c := range []Category{CategoryUDP, CategoryICMP, CategoryUnknown, CategoryUndetermined} {
		if c.ConnectionOriented() {
			t.Errorf("%v should not be connection oriented", c)
		}
	}
}

func TestFamilies(t *testing.T) {
	if len(ActiveFamilies) != 10 {
		t.Errorf("len(ActiveFamilies) = %d, want 10 (the paper's active set)", len(ActiveFamilies))
	}
	all := slices.Concat(ActiveFamilies, InactiveFamilies)
	if got := len(all); got != 23 {
		t.Errorf("active + inactive families = %d, want 23 (the paper's tracked set)", got)
	}
	if !slices.Contains(ActiveFamilies, Dirtjumper) {
		t.Error("dirtjumper must be active")
	}
	if !slices.Contains(InactiveFamilies, "zemra") {
		t.Error("zemra must be inactive")
	}
	seen := make(map[Family]bool)
	for _, f := range all {
		if seen[f] {
			t.Errorf("duplicate family %q", f)
		}
		seen[f] = true
	}
}

func TestAttackDurationAndMagnitude(t *testing.T) {
	a := validAttack(1)
	if got := a.Duration(); got != time.Hour {
		t.Errorf("Duration = %v, want 1h", got)
	}
	if got := a.Magnitude(); got != 1 {
		t.Errorf("Magnitude = %d, want 1", got)
	}
}

// TestAttackValidate holds each check to its single-fault text, and
// ValidateKey to the same text for a fault in the key and to nil for any
// other.
func TestAttackValidate(t *testing.T) {
	tests := []struct {
		name   string
		key    bool // the fault is in the key, so ValidateKey refuses it too
		mutate func(*Attack)
		want   string
	}{
		{"zero id", true, func(a *Attack) { a.ID = 0 }, "dataset: attack has zero ddos_id"},
		{"zero botnet", true, func(a *Attack) { a.BotnetID = 0 }, "dataset: attack 1 has zero botnet_id"},
		{"empty family", true, func(a *Attack) { a.Family = "" }, "dataset: attack 1 has empty family"},
		{"bad category", true, func(a *Attack) { a.Category = Category(42) }, "dataset: attack 1 has invalid category 42"},
		{"invalid target", true, func(a *Attack) { a.TargetIP = netip.Addr{} }, "dataset: attack 1 has invalid target IP"},
		{"zoned target", true, func(a *Attack) { a.TargetIP = netip.MustParseAddr("fe80::1%eth0") },
			"dataset: attack 1 target IP fe80::1%eth0 has a zone"},
		{"end before start", true, func(a *Attack) { a.End = a.Start.Add(-time.Second) },
			"dataset: attack 1 ends (2012-08-28 23:59:59 +0000 UTC) before it starts (2012-08-29 00:00:00 +0000 UTC)"},
		{"start year", true, func(a *Attack) { a.Start = time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC) },
			"dataset: attack 1 start year 1600 outside representable range"},
		{"end year", true, func(a *Attack) { a.End = time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC) },
			"dataset: attack 1 end year 2300 outside representable range"},
		{"zoned source", false, func(a *Attack) { a.BotIPs = append(a.BotIPs, netip.MustParseAddr("fe80::2%eth0")) },
			"dataset: attack 1 source IP fe80::2%eth0 has a zone"},
		{"no sources", false, func(a *Attack) { a.BotIPs = nil }, "dataset: attack 1 has no source IPs"},
		{"too many sources", false, func(a *Attack) { a.BotIPs = manyAddrs(MaxBotIPs + 1) },
			"dataset: attack 1 has 65537 source IPs, more than 65536"},
		{"bad latitude", false, func(a *Attack) { a.TargetLat = 91 }, "dataset: attack 1 has out-of-range coordinates (91, 37.62)"},
		{"bad longitude", false, func(a *Attack) { a.TargetLon = -181 }, "dataset: attack 1 has out-of-range coordinates (55.76, -181)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := validAttack(1)
			tt.mutate(a)
			if err := a.Validate(); err == nil || err.Error() != tt.want {
				t.Errorf("Validate = %v, want %q", err, tt.want)
			}
			if err := a.ValidateKey(); tt.key && (err == nil || err.Error() != tt.want) || !tt.key && err != nil {
				t.Errorf("ValidateKey = %v, want an error: %v", err, tt.key)
			}
		})
	}
	if err := validAttack(1).Validate(); err != nil {
		t.Errorf("valid attack rejected: %v", err)
	}
	// Zero-duration (simultaneous start/end) attacks are legal.
	a := validAttack(2)
	a.End = a.Start
	if err := a.Validate(); err != nil {
		t.Errorf("zero-duration attack rejected: %v", err)
	}
	// The key alone — no sources, no geolocation — is a valid key.
	key := &Attack{ID: a.ID, BotnetID: a.BotnetID, Family: a.Family, Category: a.Category, TargetIP: a.TargetIP, Start: a.Start, End: a.End}
	if err := key.ValidateKey(); err != nil {
		t.Errorf("key-only record rejected by ValidateKey: %v", err)
	}
}
