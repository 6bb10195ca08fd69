package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
)

// checkSink checks one operation's result stream as it arrives: the
// sink grammar, the outcome schema, that each row's final, tentative
// and none fractions sum to 1, and that honest_baseline cells see no
// safety violation. It keeps the rows for the digest and the re-drive.
type checkSink struct {
	start time.Time // when the operation began
	cells []cellRows
	open  bool
}

type cellRows struct {
	cell experiments.Cell
	rows [][]float64
}

var outcomeColumns = []string{"final", "tentative", "none"}

func newCheckSink() *checkSink { return &checkSink{start: time.Now()} }

func (s *checkSink) CellStart(cell experiments.Cell, columns []string) error {
	if s.open {
		return fmt.Errorf("cell %d started inside another cell", cell.Index)
	}
	if !slices.Equal(columns, outcomeColumns) {
		return fmt.Errorf("cell %d columns %q, want %q", cell.Index, columns, outcomeColumns)
	}
	s.open = true
	s.cells = append(s.cells, cellRows{cell: cell})
	return nil
}

func (s *checkSink) Row(cell experiments.Cell, row experiments.Row) error {
	cur := s.current(cell)
	if cur == nil {
		return fmt.Errorf("row for cell %d outside it", cell.Index)
	}
	if row.Index != len(cur.rows) {
		return fmt.Errorf("cell %d row %d arrived as row %d", cell.Index, len(cur.rows), row.Index)
	}
	if len(row.Values) != len(outcomeColumns) {
		return fmt.Errorf("cell %d row %d has %d values", cell.Index, row.Index, len(row.Values))
	}
	sum := 0.0
	for _, v := range row.Values {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("cell %d row %d: final+tentative+none = %.12f", cell.Index, row.Index, sum)
	}
	cur.rows = append(cur.rows, slices.Clone(row.Values))
	return nil
}

func (s *checkSink) AuditEvent(cell experiments.Cell, report adversary.Report) error {
	if s.current(cell) == nil {
		return fmt.Errorf("audit for cell %d outside it", cell.Index)
	}
	if cell.Name == adversary.HonestBaseline && report.SafetyViolations > 0 {
		return fmt.Errorf("honest_baseline seed %d: %d safety violations", cell.Seed, report.SafetyViolations)
	}
	return nil
}

func (s *checkSink) CellDone(cell experiments.Cell) error {
	if s.current(cell) == nil {
		return fmt.Errorf("cell %d closed outside it", cell.Index)
	}
	s.open = false
	return nil
}

func (s *checkSink) current(cell experiments.Cell) *cellRows {
	if !s.open || s.cells[len(s.cells)-1].cell.Index != cell.Index {
		return nil
	}
	return &s.cells[len(s.cells)-1]
}

// expect checks the stream held `cells` complete cells of `rounds` rows.
func (s *checkSink) expect(cells, rounds int) error {
	if s.open {
		return errors.New("stream ended inside a cell")
	}
	if len(s.cells) != cells {
		return fmt.Errorf("%d cells, want %d", len(s.cells), cells)
	}
	for _, c := range s.cells {
		if len(c.rows) != rounds {
			return fmt.Errorf("cell %d has %d rows, want runs x rounds = %d", c.cell.Index, len(c.rows), rounds)
		}
	}
	return nil
}

// addDigest hashes the stream's rows while the first cycle runs.
func (e *env) addDigest(s *checkSink) {
	if e.digest == nil {
		return
	}
	for _, c := range s.cells {
		fmt.Fprintf(e.digest, "cell %d %s %d\n", c.cell.Index, c.cell.Name, c.cell.Seed)
		for _, r := range c.rows {
			for _, v := range r {
				e.digest.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
				e.digest.Write([]byte{' '})
			}
			e.digest.Write([]byte{'\n'})
		}
	}
}

// timedSink records a span around every call into the wrapped sink.
type timedSink struct {
	sink   experiments.Sink
	spans  *spanLog
	parent int
}

func (t timedSink) time(name string, call func() error) error {
	start := time.Now()
	err := call()
	t.spans.add(name, t.parent, start, time.Now())
	return err
}

func (t timedSink) CellStart(cell experiments.Cell, columns []string) error {
	return t.time("sink.cell_start", func() error { return t.sink.CellStart(cell, columns) })
}

func (t timedSink) Row(cell experiments.Cell, row experiments.Row) error {
	return t.time("sink.row", func() error { return t.sink.Row(cell, row) })
}

func (t timedSink) AuditEvent(cell experiments.Cell, report adversary.Report) error {
	return t.time("sink.audit", func() error { return t.sink.AuditEvent(cell, report) })
}

func (t timedSink) CellDone(cell experiments.Cell) error {
	return t.time("sink.cell_done", func() error { return t.sink.CellDone(cell) })
}
