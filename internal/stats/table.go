package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table renders experiment results as an aligned text table or CSV — the
// output format of every benchmark harness in this repository.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v, floats with 4
// significant digits (%.4g).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
}

// formatCell renders one cell. The kinds result tables are made of —
// float64, int and string — go through strconv, which writes the bytes fmt
// would (TestTableCellsMatchFmt, FuzzTableCell); anything else goes
// through fmt.
func formatCell(c any) string {
	switch v := c.(type) {
	case float64:
		return strconv.FormatFloat(v, 'g', 4, 64)
	case int:
		return strconv.Itoa(v)
	case string:
		return v
	case float32:
		return fmt.Sprintf("%.4g", v)
	}
	return fmt.Sprintf("%v", c)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns row i.
func (t *Table) Row(i int) []string { return t.rows[i] }

// Cell returns the cell at (row, col) or "" when out of range.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.rows[row]) {
		return ""
	}
	return t.rows[row][col]
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	var sb strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	sb.Reset()
	for i := range t.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	for _, row := range t.rows {
		sb.Reset()
		for i, cell := range row {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], cell)
			} else {
				sb.WriteString(cell + "  ")
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
}

// RenderCSV writes the table as CSV with the title as a comment line.
func (t *Table) RenderCSV(w io.Writer) {
	t.WriteCSV(w) //nolint:errcheck // legacy best-effort variant
}

// WriteCSV is RenderCSV with an error return, for exporters that must not
// silently truncate on a failed write.
func (t *Table) WriteCSV(w io.Writer) error {
	var b []byte
	if t.Title != "" {
		b = append(append(append(b, "# "...), t.Title...), '\n')
	}
	b = appendCSVLine(b, t.Columns)
	for _, row := range t.rows {
		b = appendCSVLine(b, row)
	}
	_, err := w.Write(b)
	return err
}

// appendCSVLine appends cells joined by commas and a newline.
func appendCSVLine(b []byte, cells []string) []byte {
	for i, c := range cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, c...)
	}
	return append(b, '\n')
}

// MarshalJSON encodes the table as {"title", "columns", "rows"}. Cells stay
// the already-rendered strings, which keeps NaN/Inf cells from failed sweep
// points representable (encoding/json rejects non-finite numbers).
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	cols := t.Columns
	if cols == nil {
		cols = []string{}
	}
	return json.Marshal(struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}{t.Title, cols, rows})
}

// WriteJSON emits the table as one indented JSON object.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}
