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

func TestAttackValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Attack)
	}{
		{name: "zero id", mutate: func(a *Attack) { a.ID = 0 }},
		{name: "zero botnet", mutate: func(a *Attack) { a.BotnetID = 0 }},
		{name: "empty family", mutate: func(a *Attack) { a.Family = "" }},
		{name: "bad category", mutate: func(a *Attack) { a.Category = Category(42) }},
		{name: "invalid target", mutate: func(a *Attack) { a.TargetIP = netip.Addr{} }},
		{name: "zoned target", mutate: func(a *Attack) { a.TargetIP = netip.MustParseAddr("fe80::1%eth0") }},
		{name: "zoned source", mutate: func(a *Attack) { a.BotIPs = append(a.BotIPs, netip.MustParseAddr("fe80::2%eth0")) }},
		{name: "end before start", mutate: func(a *Attack) { a.End = a.Start.Add(-time.Second) }},
		{name: "no sources", mutate: func(a *Attack) { a.BotIPs = nil }},
		{name: "bad latitude", mutate: func(a *Attack) { a.TargetLat = 91 }},
		{name: "bad longitude", mutate: func(a *Attack) { a.TargetLon = -181 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := validAttack(1)
			tt.mutate(a)
			if err := a.Validate(); err == nil {
				t.Error("Validate succeeded, want error")
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
}
