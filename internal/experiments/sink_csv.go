package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// GridCSVSink renders a streamed grid as the -full path's files:
// full_<scenario>_s<seed>.csv and full_<scenario>_s<seed>_audit.csv
// per cell, plus the audit-counter summary (full_grid_summary.csv) on
// Close. Only the current cell's rows are buffered — cells arrive
// strictly in index order and one at a time, so the sink's live row
// count is O(rounds), not O(cells × rounds); PeakBufferedRows pins that
// in the budget test.
// Restored cells skip the file writes (their files were produced by
// the interrupted run) but still contribute to the summary. File names
// come from the cell identity, so CellStart refuses any cell that is
// not the config's next grid cell: a replayed stream cannot steer a
// write outside dir. AuditEvent takes one audit per started cell, so
// CellsSeen counts each cell that arrived once.
type GridCSVSink struct {
	dir         string
	cfg         ScenarioGridConfig
	summaryName string
	logf        func(format string, args ...any)

	// next is the cell index CellStart accepts next.
	next     int
	cur      GridCell
	cells    []int
	reports  []adversary.Report
	peakRows int
}

// NewGridCSVSink writes into dir; summaryName is the summary file.
// Every caller passes "full_grid_summary.csv" now that grids no longer
// split into shards with suffixed summaries; the argument stays because
// the benchmark module, whose sources are pinned, passes it.
func NewGridCSVSink(dir string, cfg ScenarioGridConfig, summaryName string) *GridCSVSink {
	return &GridCSVSink{dir: dir, cfg: cfg, summaryName: summaryName}
}

// SetLog directs the sink's "wrote <path>" lines (the CLI's progress
// feedback) to w; nil silences them.
func (s *GridCSVSink) SetLog(w io.Writer) {
	if w == nil {
		s.logf = nil
		return
	}
	s.logf = func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
}

func (s *GridCSVSink) CellStart(cell Cell, columns []string) error {
	if len(columns) != 3 {
		return fmt.Errorf("experiments: grid CSV sink expects 3 outcome columns, got %d", len(columns))
	}
	if cell.Index != s.next {
		return fmt.Errorf("experiments: grid CSV sink: cell %d arrived where cell %d belongs", cell.Index, s.next)
	}
	if err := checkGridCell(&s.cfg, cell.Index, cell.Name, cell.Seed); err != nil {
		return fmt.Errorf("experiments: grid CSV sink: %w", err)
	}
	s.next = cell.Index + 1
	s.cur.Scenario = cell.Name
	s.cur.Seed = cell.Seed
	s.cur.Final = s.cur.Final[:0]
	s.cur.Tentative = s.cur.Tentative[:0]
	s.cur.None = s.cur.None[:0]
	return nil
}

func (s *GridCSVSink) Row(cell Cell, row Row) error {
	if len(row.Values) != 3 {
		return fmt.Errorf("experiments: grid CSV sink row has %d values, want 3", len(row.Values))
	}
	s.cur.Final = append(s.cur.Final, row.Values[0])
	s.cur.Tentative = append(s.cur.Tentative, row.Values[1])
	s.cur.None = append(s.cur.None, row.Values[2])
	if n := len(s.cur.Final); n > s.peakRows {
		s.peakRows = n
	}
	return nil
}

func (s *GridCSVSink) AuditEvent(cell Cell, report adversary.Report) error {
	if len(s.cells) != s.next-1 {
		return fmt.Errorf("experiments: grid CSV sink: %d audits for %d started cells", len(s.cells)+1, s.next)
	}
	s.cur.Audit = report
	s.cells = append(s.cells, cell.Index)
	s.reports = append(s.reports, report)
	return nil
}

func (s *GridCSVSink) CellDone(cell Cell) error {
	if cell.Restored {
		return nil
	}
	base := fmt.Sprintf("full_%s_s%d", s.cur.Scenario, s.cur.Seed)
	if err := s.writeCSV(base+".csv", s.cur.Table()); err != nil {
		return err
	}
	return s.writeCSV(base+"_audit.csv", s.cur.AuditTable())
}

// Close writes the grid summary over every audited cell. It is not part
// of the Sink contract — the driver owning the sink calls it once the
// stream ends.
func (s *GridCSVSink) Close() error {
	return s.writeCSV(s.summaryName, gridSummaryTable(s.cfg, s.cells, s.reports))
}

// SafetyViolations sums conflicting-finalisation rounds across every
// audited cell — the CLI's exit verdict.
func (s *GridCSVSink) SafetyViolations() int {
	total := 0
	for _, rep := range s.reports {
		total += rep.SafetyViolations
	}
	return total
}

// CellsSeen reports how many cells streamed through.
func (s *GridCSVSink) CellsSeen() int { return len(s.cells) }

// PeakBufferedRows reports the largest number of rows the sink ever
// held at once; the streaming-budget test pins it to one cell's rounds.
func (s *GridCSVSink) PeakBufferedRows() int { return s.peakRows }

func (s *GridCSVSink) writeCSV(name string, table *stats.Table) error {
	path := filepath.Join(s.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := table.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if s.logf != nil {
		s.logf("wrote %s\n", path)
	}
	return nil
}

// GridTextSink prints the -full path's per-cell stdout lines
// ("<scenario> seed <n> <audit summary>") as cells complete.
type GridTextSink struct {
	W io.Writer
}

func (s *GridTextSink) CellStart(Cell, []string) error { return nil }
func (s *GridTextSink) Row(Cell, Row) error            { return nil }

func (s *GridTextSink) AuditEvent(cell Cell, report adversary.Report) error {
	if _, err := fmt.Fprintf(s.W, "%-22s seed %-3d ", cell.Name, cell.Seed); err != nil {
		return err
	}
	return report.WriteSummary(s.W)
}

func (s *GridTextSink) CellDone(Cell) error { return nil }
