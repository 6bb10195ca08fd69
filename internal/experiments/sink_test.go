package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// sinkEvent is one recorded Sink call, row values copied out of the
// reused buffer.
type sinkEvent struct {
	Kind    string // "start", "row", "audit", "done"
	Cell    Cell
	Columns []string
	Row     []float64
	Audit   adversary.Report
}

// recordingSink captures the full event stream and enforces the Sink
// grammar: cells strictly ascending, rows/audits only inside an open
// cell, every opened cell closed.
type recordingSink struct {
	events []sinkEvent
	open   bool
	cur    int
	last   int
}

func newRecordingSink() *recordingSink { return &recordingSink{last: -1} }

func (s *recordingSink) CellStart(cell Cell, columns []string) error {
	if s.open {
		return fmt.Errorf("CellStart(%d) while cell %d open", cell.Index, s.cur)
	}
	if cell.Index <= s.last {
		return fmt.Errorf("CellStart(%d) after cell %d: not ascending", cell.Index, s.last)
	}
	s.open, s.cur, s.last = true, cell.Index, cell.Index
	s.events = append(s.events, sinkEvent{Kind: "start", Cell: cell, Columns: append([]string(nil), columns...)})
	return nil
}

func (s *recordingSink) Row(cell Cell, row Row) error {
	if !s.open || cell.Index != s.cur {
		return fmt.Errorf("Row for cell %d, open cell %d", cell.Index, s.cur)
	}
	s.events = append(s.events, sinkEvent{Kind: "row", Cell: cell, Row: append([]float64(nil), row.Values...)})
	return nil
}

func (s *recordingSink) AuditEvent(cell Cell, report adversary.Report) error {
	if !s.open || cell.Index != s.cur {
		return fmt.Errorf("AuditEvent for cell %d, open cell %d", cell.Index, s.cur)
	}
	s.events = append(s.events, sinkEvent{Kind: "audit", Cell: cell, Audit: report})
	return nil
}

func (s *recordingSink) CellDone(cell Cell) error {
	if !s.open || cell.Index != s.cur {
		return fmt.Errorf("CellDone for cell %d, open cell %d", cell.Index, s.cur)
	}
	s.open = false
	s.events = append(s.events, sinkEvent{Kind: "done", Cell: cell})
	return nil
}

// cellCount tallies distinct completed cells.
func (s *recordingSink) cellCount() int {
	n := 0
	for _, ev := range s.events {
		if ev.Kind == "done" {
			n++
		}
	}
	return n
}

func csvBytes(t *testing.T, table *stats.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// materializeCells is the reference model for StreamScenarioGrid, the
// collect-then-replay execution streaming replaced: every cell is
// computed and retained, in grid order.
func materializeCells(cfg ScenarioGridConfig) ([]GridCell, error) {
	scenarios, err := resolveGrid(&cfg)
	if err != nil {
		return nil, err
	}
	return runpool.SweepWithState(len(cfg.Scenarios)*len(cfg.Seeds), cfg.Workers,
		func(int) *protocol.Arena { return protocol.NewArena() },
		func(cell int, arena *protocol.Arena) (GridCell, error) {
			return simulateGridCell(cfg, scenarios, cell, arena)
		})
}

// materializeGrid replays materializeCells' grid into the sink in
// ascending order.
func materializeGrid(cfg ScenarioGridConfig, sink Sink) error {
	results, err := materializeCells(cfg)
	if err != nil {
		return err
	}
	for i := range results {
		if err := emitGridCell(sink, Cell{Index: i, Name: results[i].Scenario, Seed: results[i].Seed}, &results[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamMatchesMaterialize is the streaming fold's differential
// oracle: it and the materialize-then-replay reference must produce
// identical event streams at every worker count.
func TestStreamMatchesMaterialize(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := smallGridConfig()
	oracle := newRecordingSink()
	if err := materializeGrid(cfg, oracle); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		got := newRecordingSink()
		if err := StreamScenarioGrid(cfg, got, StreamOptions{}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.events, oracle.events) {
			t.Fatalf("workers=%d: streamed events differ from materialized oracle", workers)
		}
	}
}

// TestStreamSummaryInvariance pins the stream summary's byte identity
// at any worker count; TestCheckpointResumeByteIdentity pins it across
// restored and freshly simulated cells.
func TestStreamSummaryInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := smallGridConfig()
	baselineSink := NewSummarySink(0)
	if err := StreamScenarioGrid(cfg, baselineSink, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	baselineTable, err := baselineSink.Table()
	if err != nil {
		t.Fatal(err)
	}
	baseline := csvBytes(t, baselineTable)

	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		sink := NewSummarySink(0)
		if err := StreamScenarioGrid(cfg, sink, StreamOptions{}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		table, err := sink.Table()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvBytes(t, table), baseline) {
			t.Fatalf("workers=%d stream summary differs", workers)
		}
	}
}

// TestGridCSVSinkMatchesMaterializedTables pins the CSV sink against
// the materialized result's own table renderings, file by file, and
// the O(rounds) buffering bound.
func TestGridCSVSinkMatchesMaterializedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := smallGridConfig()
	dir := t.TempDir()
	sink := NewGridCSVSink(dir, cfg, "full_grid_summary.csv")
	if err := StreamScenarioGrid(cfg, sink, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	cells, err := materializeCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		base := fmt.Sprintf("full_%s_s%d", c.Scenario, c.Seed)
		got, err := os.ReadFile(filepath.Join(dir, base+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, csvBytes(t, c.Table())) {
			t.Fatalf("%s.csv differs from materialized table", base)
		}
		got, err = os.ReadFile(filepath.Join(dir, base+"_audit.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, csvBytes(t, c.AuditTable())) {
			t.Fatalf("%s_audit.csv differs from materialized table", base)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "full_grid_summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, csvBytes(t, gridSummary(cfg, cells))) {
		t.Fatal("full_grid_summary.csv differs from materialized summary")
	}
	if sink.CellsSeen() != len(cells) {
		t.Fatalf("sink saw %d cells, want %d", sink.CellsSeen(), len(cells))
	}
	if sink.PeakBufferedRows() != cfg.Rounds {
		t.Fatalf("peak buffered rows %d, want %d (one cell)", sink.PeakBufferedRows(), cfg.Rounds)
	}
	if v, want := sink.SafetyViolations(), gridSafetyViolations(cells); v != want {
		t.Fatalf("sink safety violations %d, materialized %d", v, want)
	}
}

// streamWithCheckpoint runs the grid with the full -full sink stack
// (CSV + summary + checkpoint) restoring from any prior records, and
// returns the paths it wrote.
func streamWithCheckpoint(t *testing.T, cfg ScenarioGridConfig, dir string, prior []GridCellRecord) {
	t.Helper()
	fp := GridFingerprint(cfg, "")
	ckptPath := filepath.Join(dir, GridCheckpointName(ShardSpec{}))
	cw, err := CreateGridCheckpoint(ckptPath, fp, ShardSpec{}, prior)
	if err != nil {
		t.Fatal(err)
	}
	summary := NewSummarySink(0)
	summary.Restore(prior)
	csv := NewGridCSVSink(dir, cfg, "full_grid_summary.csv")
	restored := make(map[int]adversary.Report, len(prior))
	for _, rec := range prior {
		restored[rec.Index] = rec.Audit
	}
	sink := MultiSink(csv, summary, NewCheckpointSink(cw, 0))
	if err := StreamScenarioGrid(cfg, sink, StreamOptions{Restored: restored}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := csv.Close(); err != nil {
		t.Fatal(err)
	}
	table, err := summary.Table()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "full_grid_stream_summary.csv"), csvBytes(t, table), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointResumeByteIdentity simulates a kill after two cells —
// including a torn final checkpoint line — and pins that the resumed
// run's checkpoint, grid summary and stream summary are byte-identical
// to an uninterrupted run's.
func TestCheckpointResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := smallGridConfig()
	cfg.Workers = 2
	fp := GridFingerprint(cfg, "")

	cleanDir := t.TempDir()
	streamWithCheckpoint(t, cfg, cleanDir, nil)

	// Interrupted run: keep the header plus the first two records, then
	// a torn half-record, as if the process died mid-write.
	resumeDir := t.TempDir()
	cleanCkpt, err := os.ReadFile(filepath.Join(cleanDir, GridCheckpointName(ShardSpec{})))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(cleanCkpt, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("checkpoint has %d lines, want >=4", len(lines))
	}
	torn := append([]byte{}, bytes.Join(lines[:3], nil)...)
	torn = append(torn, lines[3][:len(lines[3])/2]...)
	resumeCkpt := filepath.Join(resumeDir, GridCheckpointName(ShardSpec{}))
	if err := os.WriteFile(resumeCkpt, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	prior, err := LoadGridCheckpoint(resumeCkpt, cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 2 {
		t.Fatalf("loaded %d records from torn checkpoint, want 2", len(prior))
	}
	streamWithCheckpoint(t, cfg, resumeDir, prior)

	for _, name := range []string{GridCheckpointName(ShardSpec{}), "full_grid_summary.csv", "full_grid_stream_summary.csv"} {
		clean, err := os.ReadFile(filepath.Join(cleanDir, name))
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := os.ReadFile(filepath.Join(resumeDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(clean, resumed) {
			t.Fatalf("%s differs between uninterrupted and resumed runs", name)
		}
	}
}

// TestCheckpointHeaderValidation pins the loud failure modes: a foreign
// fingerprint, a header naming a shard of a split grid and a garbled
// header line; and the silent fresh starts: a missing file, an empty
// one and a header torn before its newline.
func TestCheckpointHeaderValidation(t *testing.T) {
	cfg := ScenarioGridConfig{Scenarios: []string{"x"}, Seeds: []int64{1}}
	dir := t.TempDir()
	path := filepath.Join(dir, GridCheckpointName(ShardSpec{}))
	cw, err := CreateGridCheckpoint(path, "fp-a", ShardSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Record(GridCellRecord{Index: 0, Scenario: "x", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, err := LoadGridCheckpoint(path, cfg, "fp-a"); err != nil || len(recs) != 1 {
		t.Fatalf("round trip: %v, %d records", err, len(recs))
	}
	if _, err := LoadGridCheckpoint(path, cfg, "fp-b"); err == nil {
		t.Fatal("foreign fingerprint accepted")
	}
	recs, err := LoadGridCheckpoint(filepath.Join(dir, "absent.jsonl"), cfg, "fp-a")
	if err != nil || recs != nil {
		t.Fatalf("missing file: %v, %v (want nil, nil)", recs, err)
	}

	for _, tc := range []struct {
		name, content string
		wantErr       string // "" means a fresh start: nil records, no error
	}{
		{"other shard", `{"version":1,"fingerprint":"fp-a","shard":"1/3"}` + "\n", "sharded grids are gone"},
		{"garbled header", "not a checkpoint\n", "bad header"},
		{"empty file", "", ""},
		{"torn header", `{"version":1,"finger`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), GridCheckpointName(ShardSpec{}))
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			recs, err := LoadGridCheckpoint(path, cfg, "fp-a")
			switch {
			case tc.wantErr == "" && (err != nil || recs != nil):
				t.Errorf("%v, %v (want a fresh start)", recs, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("error %v, want one saying %q", err, tc.wantErr)
			}
		})
	}
}

// TestMultiSinkFanout pins fan-out order and nil tolerance.
func TestMultiSinkFanout(t *testing.T) {
	a, b := newRecordingSink(), newRecordingSink()
	sink := MultiSink(nil, a, nil, b)
	cell := Cell{Index: 0, Name: "x", Seed: 1}
	if err := sink.CellStart(cell, []string{"v"}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Row(cell, Row{Index: 0, Values: []float64{42}}); err != nil {
		t.Fatal(err)
	}
	if err := sink.CellDone(cell); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.events, b.events) || len(a.events) != 3 {
		t.Fatalf("fan-out mismatch: %d vs %d events", len(a.events), len(b.events))
	}
	if only := MultiSink(nil, a); only != Sink(a) {
		t.Fatal("single-sink MultiSink did not unwrap")
	}
}
