package report

import (
	"strings"
	"testing"

	"botscope/internal/stats"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Title", "name", "count")
	tbl.SetAlign(1, AlignRight)
	tbl.AddRow("alpha", "10")
	tbl.AddRow("b", "2000")
	out := tbl.String()
	if !strings.Contains(out, "Title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2000") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("lines = %d, want 5:\n%s", len(lines), out)
	}
	// Right-aligned column: "10" must be padded from the left.
	if !strings.Contains(lines[3], "  10") {
		t.Errorf("right alignment broken: %q", lines[3])
	}
	if tbl.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tbl.NumRows())
	}
}

func TestTableRowShapeHandling(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("only")            // short row
	tbl.AddRow("x", "y", "extra") // long row truncated
	out := tbl.String()
	if strings.Contains(out, "extra") {
		t.Error("extra cell not truncated")
	}
	if !strings.Contains(out, "only") || !strings.Contains(out, "y") {
		t.Errorf("short or long row missing:\n%s", out)
	}
}

func TestFormatInt(t *testing.T) {
	tests := []struct {
		give int
		want string
	}{
		{give: 0, want: "0"},
		{give: 7, want: "7"},
		{give: 999, want: "999"},
		{give: 1000, want: "1,000"},
		{give: 50704, want: "50,704"},
		{give: 1234567, want: "1,234,567"},
		{give: -50704, want: "-50,704"},
	}
	for _, tt := range tests {
		if got := FormatInt(tt.give); got != tt.want {
			t.Errorf("FormatInt(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		give     float64
		decimals int
		want     string
	}{
		{give: 10308.4, decimals: 1, want: "10,308.4"},
		{give: 0.5, decimals: 0, want: "1"},
		{give: 1766, decimals: 0, want: "1,766"},
		{give: -3.25, decimals: 2, want: "-3.25"},
		{give: 0.999, decimals: 1, want: "1.0"},
	}
	for _, tt := range tests {
		if got := FormatFloat(tt.give, tt.decimals); got != tt.want {
			t.Errorf("FormatFloat(%v, %d) = %q, want %q", tt.give, tt.decimals, got, tt.want)
		}
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("Protocols", []string{"HTTP", "UDP"}, []float64{100, 10}, 20)
	if !strings.Contains(out, "HTTP") || !strings.Contains(out, "#") {
		t.Errorf("bar chart malformed:\n%s", out)
	}
	// Small nonzero values still draw at least one mark.
	out = BarChart("", []string{"a", "b"}, []float64{1000, 1}, 20)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "b") && !strings.Contains(line, "#") {
			t.Errorf("tiny bar dropped: %q", line)
		}
	}
	if out := BarChart("t", nil, nil, 10); !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
}

func TestCDFChart(t *testing.T) {
	cdf := stats.NewECDF([]float64{1, 10, 100, 1000, 10000})
	out := CDFChart("Durations", cdf, 40, 8)
	if !strings.Contains(out, "Durations") || !strings.Contains(out, "*") {
		t.Errorf("CDF chart malformed:\n%s", out)
	}
	if !strings.Contains(out, "log scale") {
		t.Error("missing axis annotation")
	}
	empty := CDFChart("x", stats.NewECDF(nil), 40, 8)
	if !strings.Contains(empty, "no data") {
		t.Errorf("empty CDF chart = %q", empty)
	}
}

func TestMultiCDFLandmarks(t *testing.T) {
	cdfA := stats.NewECDF([]float64{1, 2, 3, 4, 5})
	cdfB := stats.NewECDF([]float64{10, 20, 30})
	out := MultiCDFLandmarks("Intervals", []string{"all", "dirtjumper"},
		[]*stats.ECDF{cdfA, cdfB}, []float64{60})
	if !strings.Contains(out, "P(x<=60)") {
		t.Errorf("threshold column missing:\n%s", out)
	}
	if !strings.Contains(out, "dirtjumper") {
		t.Errorf("series row missing:\n%s", out)
	}
}

func TestHistogramChart(t *testing.T) {
	h, err := stats.NewHistogram(0, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{5, 10, 55, 200})
	out := HistogramChart("Dispersion", h, 20)
	if !strings.Contains(out, "[0, 25)") {
		t.Errorf("bin labels missing:\n%s", out)
	}
	if !strings.Contains(out, "overflow 1") {
		t.Errorf("overflow note missing:\n%s", out)
	}
}

func TestSparklineAndPanel(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("Sparkline(nil) = %q", got)
	}
	line := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(line)) != 4 {
		t.Errorf("sparkline length = %d, want 4", len([]rune(line)))
	}
	flat := Sparkline([]float64{5, 5, 5})
	runes := []rune(flat)
	if runes[0] != runes[1] || runes[1] != runes[2] {
		t.Errorf("flat series rendered unevenly: %q", flat)
	}

	panel := SeriesPanel("Daily", []float64{1, 2, 3, 4, 5}, 3)
	if !strings.Contains(panel, "mean") {
		t.Errorf("panel stats missing:\n%s", panel)
	}
	if empty := SeriesPanel("x", nil, 10); !strings.Contains(empty, "no data") {
		t.Errorf("empty panel = %q", empty)
	}
}

func TestDownsample(t *testing.T) {
	vals := []float64{1, 1, 3, 3, 5, 5}
	got := Downsample(vals, 3)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// No-op when already small; result is a copy.
	same := Downsample(vals, 100)
	same[0] = 99
	if vals[0] == 99 {
		t.Error("Downsample aliases input")
	}
}

func TestWorldMap(t *testing.T) {
	out := WorldMap("Targets", []float64{55.7, 40.7}, []float64{37.6, -74.0}, []float64{100, 10}, 40, 12)
	if !strings.Contains(out, "O") {
		t.Errorf("heavy mark missing:\n%s", out)
	}
	if !strings.Contains(out, "o") && !strings.Contains(out, ".") {
		t.Errorf("light mark missing:\n%s", out)
	}
	// Out-of-range coordinates are skipped, not crashed on.
	_ = WorldMap("x", []float64{999}, []float64{999}, []float64{1}, 10, 5)
}

func TestPercentString(t *testing.T) {
	if got := PercentString(0.767); got != "76.7%" {
		t.Errorf("PercentString = %q", got)
	}
}
