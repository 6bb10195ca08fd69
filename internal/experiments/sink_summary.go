package experiments

import (
	"fmt"
	"sort"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// CellSummary is one cell's mergeable contribution to the streaming
// grid summary: per-column moment accumulators and quantile sketches
// over the cell's rows. It is a pure, deterministic function of the
// cell's row stream, and encoding/json round-trips every float64
// exactly, so a summary restored from a checkpoint or shipped across a
// shard boundary is bit-identical to one computed in process — the
// property that makes the merged stream summary byte-identical at any
// worker count, shard split, or interruption point.
type CellSummary struct {
	Cell     int                     `json:"cell"`
	Columns  []string                `json:"columns"`
	Rows     int                     `json:"rows"`
	Moments  []stats.Moments         `json:"moments"`
	Sketches []*stats.QuantileSketch `json:"sketches"`
}

// check rejects a decoded summary whose shape the merge cannot fold:
// no columns, per-column state that does not line up with the columns,
// or a missing sketch.
func (cs *CellSummary) check() error {
	if len(cs.Columns) == 0 || len(cs.Moments) != len(cs.Columns) || len(cs.Sketches) != len(cs.Columns) {
		return fmt.Errorf("summary has %d columns, %d moments and %d sketches", len(cs.Columns), len(cs.Moments), len(cs.Sketches))
	}
	for i, sk := range cs.Sketches {
		if sk == nil {
			return fmt.Errorf("summary column %d has no sketch", i)
		}
	}
	return nil
}

// newCellSummary starts a summary for one cell.
func newCellSummary(cell int, columns []string, sketchK int) *CellSummary {
	cs := &CellSummary{
		Cell:     cell,
		Columns:  append([]string(nil), columns...),
		Moments:  make([]stats.Moments, len(columns)),
		Sketches: make([]*stats.QuantileSketch, len(columns)),
	}
	for i := range cs.Sketches {
		cs.Sketches[i] = stats.NewQuantileSketch(sketchK)
	}
	return cs
}

// observe folds one row in.
func (cs *CellSummary) observe(values []float64) error {
	if len(values) != len(cs.Columns) {
		return fmt.Errorf("experiments: row has %d values, summary has %d columns", len(values), len(cs.Columns))
	}
	for i, v := range values {
		cs.Moments[i].Observe(v)
		cs.Sketches[i].Observe(v)
	}
	cs.Rows++
	return nil
}

// SummarySink is the memory-bounded streaming fold: it reduces every
// cell's rows to a CellSummary as they stream past, holding O(cells)
// sketch state and never the rows themselves. Table() folds the
// per-cell summaries in ascending cell order into one
// mean/CI/percentile row per column — the full_grid_stream_summary.csv
// artifact.
type SummarySink struct {
	sketchK int
	columns []string
	cells   map[int]*CellSummary
	cur     *CellSummary
}

// NewSummarySink builds the sink; sketchK <= 0 selects
// stats.DefaultSketchK.
func NewSummarySink(sketchK int) *SummarySink {
	return &SummarySink{sketchK: sketchK, cells: make(map[int]*CellSummary)}
}

// Restore pre-seeds checkpointed cell summaries so a resumed grid's
// stream summary covers the cells that are not re-simulated.
func (s *SummarySink) Restore(records []GridCellRecord) {
	for _, rec := range records {
		if rec.Summary != nil {
			s.cells[rec.Index] = rec.Summary
		}
	}
}

func (s *SummarySink) CellStart(cell Cell, columns []string) error {
	if s.columns == nil {
		s.columns = append([]string(nil), columns...)
	} else if len(columns) != len(s.columns) {
		return fmt.Errorf("experiments: summary sink schema changed mid-stream (%d columns, then %d)", len(s.columns), len(columns))
	}
	if cell.Restored {
		if _, ok := s.cells[cell.Index]; !ok {
			return fmt.Errorf("experiments: restored cell %d has no checkpointed summary", cell.Index)
		}
		s.cur = nil
		return nil
	}
	s.cur = newCellSummary(cell.Index, columns, s.sketchK)
	return nil
}

func (s *SummarySink) Row(cell Cell, row Row) error {
	if s.cur == nil {
		return fmt.Errorf("experiments: summary sink got a row for restored cell %d", cell.Index)
	}
	return s.cur.observe(row.Values)
}

func (s *SummarySink) AuditEvent(Cell, adversary.Report) error { return nil }

func (s *SummarySink) CellDone(cell Cell) error {
	if s.cur != nil {
		s.cells[cell.Index] = s.cur
		s.cur = nil
	}
	return nil
}

// CellSummaries returns the accumulated summaries in ascending cell
// order (the checkpoint sink's record payloads come from its own
// identical accumulation; this accessor serves tests and merges).
func (s *SummarySink) CellSummaries() []*CellSummary {
	idx := make([]int, 0, len(s.cells))
	for i := range s.cells {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]*CellSummary, len(idx))
	for j, i := range idx {
		out[j] = s.cells[i]
	}
	return out
}

// streamSummaryColumns is the per-column statistic set Table renders.
var streamSummaryColumns = []string{"column_idx", "rows", "mean", "ci95", "min", "p10", "p25", "p50", "p75", "p90", "max"}

// Table folds every cell summary — ascending cell index, left to right
// — and renders one row per outcome column. The fixed fold order makes
// the output independent of worker count, shard split, and resume
// history.
func (s *SummarySink) Table() (*stats.Table, error) {
	return StreamSummaryTable(s.CellSummaries())
}

// StreamSummaryTable merges per-cell summaries (ascending cell order,
// left-fold) into the stream-summary table: one row per column with
// mean, CI and sketch percentiles over every row of every cell.
func StreamSummaryTable(cells []*CellSummary) (*stats.Table, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("experiments: no cell summaries to merge")
	}
	sorted := append([]*CellSummary(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cell < sorted[j].Cell })
	columns := sorted[0].Columns
	merged := newCellSummary(0, columns, sorted[0].Sketches[0].K)
	for _, cs := range sorted {
		if len(cs.Columns) != len(columns) {
			return nil, fmt.Errorf("experiments: cell %d has %d columns, want %d", cs.Cell, len(cs.Columns), len(columns))
		}
		for i := range columns {
			merged.Moments[i].Merge(cs.Moments[i])
			if err := merged.Sketches[i].Merge(cs.Sketches[i]); err != nil {
				return nil, err
			}
		}
		merged.Rows += cs.Rows
	}

	t := &stats.Table{}
	rows := make(map[string][]float64, len(streamSummaryColumns))
	for i := range columns {
		m, sk := merged.Moments[i], merged.Sketches[i]
		q := func(p float64) float64 {
			v, err := sk.Quantile(p)
			if err != nil {
				return 0
			}
			return v
		}
		rows["column_idx"] = append(rows["column_idx"], float64(i))
		rows["rows"] = append(rows["rows"], float64(m.N))
		rows["mean"] = append(rows["mean"], m.Mean())
		rows["ci95"] = append(rows["ci95"], m.CI95())
		rows["min"] = append(rows["min"], m.Min)
		rows["p10"] = append(rows["p10"], q(0.10))
		rows["p25"] = append(rows["p25"], q(0.25))
		rows["p50"] = append(rows["p50"], q(0.50))
		rows["p75"] = append(rows["p75"], q(0.75))
		rows["p90"] = append(rows["p90"], q(0.90))
		rows["max"] = append(rows["max"], m.Max)
	}
	for _, name := range streamSummaryColumns {
		t.AddColumn(name, rows[name])
	}
	return t, nil
}
