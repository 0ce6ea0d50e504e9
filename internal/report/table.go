// Package report renders botscope analysis results as plain-text tables
// and charts, so cmd/botreport can regenerate every table and figure of
// the paper on a terminal.
package report

import (
	"fmt"
	"strings"
)

// Align controls column alignment in a Table.
type Align int

// Column alignments.
const (
	AlignLeft Align = iota + 1
	AlignRight
)

// Table is a simple text table builder.
type Table struct {
	title   string
	headers []string
	aligns  []Align
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	aligns := make([]Align, len(headers))
	for i := range aligns {
		aligns[i] = AlignLeft
	}
	return &Table{title: title, headers: headers, aligns: aligns}
}

// SetAlign sets the alignment of column i (ignored when out of range).
func (t *Table) SetAlign(i int, a Align) *Table {
	if i >= 0 && i < len(t.aligns) {
		t.aligns[i] = a
	}
	return t
}

// AddRow appends a row; cells beyond the header count are dropped and
// missing cells are blank.
func (t *Table) AddRow(cells ...string) *Table {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with a box-drawing-free ASCII layout.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(cell)
			if t.aligns[i] == AlignRight {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(cell)
			} else {
				b.WriteString(cell)
				if i < len(cells)-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatInt renders n with thousands separators (50,704 style), matching
// how the paper prints counts.
func FormatInt(n int) string {
	neg := n < 0
	if neg {
		n = -n
	}
	s := fmt.Sprintf("%d", n)
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	if neg {
		return "-" + b.String()
	}
	return b.String()
}

// FormatFloat renders f with the given decimals and thousands separators.
func FormatFloat(f float64, decimals int) string {
	if f < 0 {
		return "-" + FormatFloat(-f, decimals)
	}
	whole := int(f)
	frac := f - float64(whole)
	if decimals <= 0 {
		return FormatInt(int(f + 0.5))
	}
	fracStr := fmt.Sprintf("%.*f", decimals, frac)
	// fracStr is like "0.46" (or "1.00" after rounding up).
	if strings.HasPrefix(fracStr, "1") {
		whole++
		fracStr = fmt.Sprintf("%.*f", decimals, 0.0)
	}
	return FormatInt(whole) + fracStr[1:]
}
