package stats

import (
	"strings"
	"testing"
)

func TestTableCSV(t *testing.T) {
	tbl := &Table{Columns: []Series{
		{Name: "x", Values: []float64{1, 2, 3}},
		{Name: "y", Values: []float64{10, 20}},
	}}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), sb.String())
	}
	if lines[0] != "x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,10" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[3] != "3," {
		t.Errorf("row 3 = %q, want trailing empty cell", lines[3])
	}
}

func TestTableRows(t *testing.T) {
	tbl := &Table{}
	if tbl.Rows() != 0 {
		t.Errorf("empty table Rows = %d", tbl.Rows())
	}
	tbl.AddColumn("a", []float64{1})
	tbl.AddColumn("b", []float64{1, 2, 3})
	if tbl.Rows() != 3 {
		t.Errorf("Rows = %d, want 3", tbl.Rows())
	}
}

func TestTableText(t *testing.T) {
	tbl := &Table{Columns: []Series{{Name: "value", Values: []float64{1.5, 2.25}}}}
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "value") || !strings.Contains(out, "2.25") {
		t.Errorf("text table missing content:\n%s", out)
	}
}
