package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result: a title, column headers, and
// rows of cells. Experiments return Tables; cmd/mccio-bench renders
// them as aligned text or CSV.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// addf appends a row whose i-th cell is vals[i] formatted with the
// i-th of the space-separated verbs.
func (t *Table) addf(verbs string, vals ...any) {
	vs := strings.Fields(verbs)
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = fmt.Sprintf(vs[i], v)
	}
	t.AddRow(cells...)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// WriteCSV renders the table as CSV (title and notes as comments).
func (t *Table) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	fmt.Fprintln(w, strings.Join(t.Headers, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// mb formats a byte count as a compact MB/MiB-style label.
func mb(bytes int64) string {
	switch {
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return fmt.Sprintf("%dMB", bytes>>20)
	case bytes >= 1<<10 && bytes%(1<<10) == 0:
		return fmt.Sprintf("%dKB", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}

// pct formats an improvement of a over b in percent.
func pct(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (a/b-1)*100)
}
