package experiments

import (
	"github.com/dsn2020-algorand/incentives/internal/adversary"
)

// The streaming result-sink contract. Drivers emit results as a
// sequence of cells — one independent unit of work such as a (scenario,
// seed) grid cell, one run of a sweep, or one figure panel — each
// carrying zero or more rows and at most one audit event:
//
//	CellStart (Row* AuditEvent? ) CellDone, cells in ascending Index order
//
// Emission order is deterministic: cells arrive in ascending Cell.Index
// order and rows in ascending Row.Index order at any worker count
// (runpool.SweepFold's contract), so a deterministic sink produces
// bit-identical output regardless of scheduling. Calls are never
// concurrent. Any sink error aborts the driver and is returned to the
// caller.

// Cell identifies one streamed unit of work.
type Cell struct {
	// Index is the cell's position on the driver's cell axis (grid
	// cells: scenario-major × seed; sweeps: the run index).
	Index int
	// Name labels the cell (scenario name, panel label, ...).
	Name string
	// Seed is the cell's base seed.
	Seed int64
	// Restored marks a cell replayed from a checkpoint: its audit event
	// is delivered so summaries cover the whole grid, but its rows are
	// not re-simulated (they were already sunk by the interrupted run).
	Restored bool
}

// Row is one streamed observation of a cell. Values is only valid for
// the duration of the call — sinks that retain it must copy.
type Row struct {
	// Index is the row's position within its cell (grid cells: the
	// zero-based round).
	Index int
	// Values holds one float64 per column, aligned with the columns
	// slice passed to CellStart.
	Values []float64
}

// Sink consumes a driver's result stream. Implementations need no
// locking: drivers serialize all calls.
type Sink interface {
	// CellStart opens a cell and declares its column schema. The
	// columns slice is shared — sinks must not mutate it.
	CellStart(cell Cell, columns []string) error
	// Row delivers one observation; see Row.Values for aliasing rules.
	Row(cell Cell, row Row) error
	// AuditEvent delivers the cell's safety/liveness report, after its
	// rows and before CellDone. Cells without an audit skip it.
	AuditEvent(cell Cell, report adversary.Report) error
	// CellDone closes the cell.
	CellDone(cell Cell) error
}

// multiSink fans one stream out to several sinks in order.
type multiSink []Sink

// MultiSink combines sinks into one that forwards every call to each,
// in argument order, stopping at the first error. Nil sinks are
// dropped; a single survivor is returned unwrapped.
func MultiSink(sinks ...Sink) Sink {
	var ms multiSink
	for _, s := range sinks {
		if s != nil {
			ms = append(ms, s)
		}
	}
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return ms[0]
	}
	return ms
}

func (ms multiSink) CellStart(cell Cell, columns []string) error {
	for _, s := range ms {
		if err := s.CellStart(cell, columns); err != nil {
			return err
		}
	}
	return nil
}

func (ms multiSink) Row(cell Cell, row Row) error {
	for _, s := range ms {
		if err := s.Row(cell, row); err != nil {
			return err
		}
	}
	return nil
}

func (ms multiSink) AuditEvent(cell Cell, report adversary.Report) error {
	for _, s := range ms {
		if err := s.AuditEvent(cell, report); err != nil {
			return err
		}
	}
	return nil
}

func (ms multiSink) CellDone(cell Cell) error {
	for _, s := range ms {
		if err := s.CellDone(cell); err != nil {
			return err
		}
	}
	return nil
}

// emitSeriesRows streams aligned per-column series as rows: row i holds
// series[0][i], series[1][i], ... All series must share length; one
// scratch buffer is reused across rows per the Row.Values contract.
func emitSeriesRows(sink Sink, cell Cell, series ...[]float64) error {
	if len(series) == 0 {
		return nil
	}
	buf := make([]float64, len(series))
	for i := 0; i < len(series[0]); i++ {
		for j, s := range series {
			buf[j] = s[i]
		}
		if err := sink.Row(cell, Row{Index: i, Values: buf}); err != nil {
			return err
		}
	}
	return nil
}

// outcomeColumns is the schema shared by every per-round outcome
// stream: the fraction of nodes finishing the round with a final block,
// a tentative block, or none.
var outcomeColumns = []string{"final", "tentative", "none"}
