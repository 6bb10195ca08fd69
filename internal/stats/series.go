package stats

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Series is a named column of float64 samples. Tables (in the CSV sense)
// are built out of one X column plus any number of Y series; every paper
// figure that plots lines over rounds is emitted through this type.
type Series struct {
	Name   string
	Values []float64
}

// Table is a rectangular collection of columns rendered as CSV or as an
// aligned text table. Columns may have different lengths; missing cells
// render empty.
type Table struct {
	Columns []Series
}

// AddColumn appends a column to the table.
func (t *Table) AddColumn(name string, values []float64) {
	t.Columns = append(t.Columns, Series{Name: name, Values: values})
}

// Rows returns the number of rows (the longest column length).
func (t *Table) Rows() int {
	n := 0
	for _, c := range t.Columns {
		if len(c.Values) > n {
			n = len(c.Values)
		}
	}
	return n
}

// WriteCSV writes the table in CSV form, header row first.
func (t *Table) WriteCSV(w io.Writer) error {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	if _, err := fmt.Fprintln(w, strings.Join(names, ",")); err != nil {
		return err
	}
	rows := t.Rows()
	cells := make([]string, len(t.Columns))
	for r := 0; r < rows; r++ {
		for i, c := range t.Columns {
			if r < len(c.Values) {
				cells[i] = strconv.FormatFloat(c.Values[r], 'g', 8, 64)
			} else {
				cells[i] = ""
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteText writes the table as an aligned, human-readable text table.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	rows := t.Rows()
	formatted := make([][]string, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c.Name)
		formatted[i] = make([]string, rows)
		for r := 0; r < rows; r++ {
			if r < len(c.Values) {
				formatted[i][r] = strconv.FormatFloat(c.Values[r], 'g', 6, 64)
			}
			if len(formatted[i][r]) > widths[i] {
				widths[i] = len(formatted[i][r])
			}
		}
	}
	for i, c := range t.Columns {
		if _, err := fmt.Fprintf(w, "%-*s  ", widths[i], c.Name); err != nil {
			return err
		}
		_ = i
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for r := 0; r < rows; r++ {
		for i := range t.Columns {
			if _, err := fmt.Fprintf(w, "%-*s  ", widths[i], formatted[i][r]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
