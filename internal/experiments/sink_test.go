package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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

// TestStreamShardsPartitionGrid pins the shard contract: any n-way
// split covers every cell exactly once, each cell's events are
// identical to the unsharded stream's, and reassembling shard streams
// in cell order reproduces the whole stream.
func TestStreamShardsPartitionGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := smallGridConfig()
	cfg.Workers = 2
	whole := newRecordingSink()
	if err := StreamScenarioGrid(cfg, whole, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, 4} {
		var merged []sinkEvent
		for i := 0; i < n; i++ {
			part := newRecordingSink()
			err := StreamScenarioGrid(cfg, part, StreamOptions{Shard: ShardSpec{Index: i, Count: n}})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, n, err)
			}
			merged = append(merged, part.events...)
		}
		// Each cell's events are contiguous; stable-sort blocks by index.
		sort.SliceStable(merged, func(a, b int) bool { return merged[a].Cell.Index < merged[b].Cell.Index })
		if !reflect.DeepEqual(merged, whole.events) {
			t.Fatalf("%d-way shard reassembly differs from unsharded stream", n)
		}
	}
}

// TestStreamSummaryInvariance pins the satellite-3 byte-identity claim:
// the stream summary CSV is identical at any worker count and under
// shard splits whose partial summaries are merged.
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

	cfg.Workers = 2
	for _, n := range []int{3, 4} {
		var all []*CellSummary
		for i := 0; i < n; i++ {
			sink := NewSummarySink(0)
			err := StreamScenarioGrid(cfg, sink, StreamOptions{Shard: ShardSpec{Index: i, Count: n}})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, n, err)
			}
			all = append(all, sink.CellSummaries()...)
		}
		table, err := StreamSummaryTable(all)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvBytes(t, table), baseline) {
			t.Fatalf("%d-way shard-merged stream summary differs", n)
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

	prior, err := LoadGridCheckpoint(resumeCkpt, cfg, fp, ShardSpec{})
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
// fingerprint, a wrong shard, and the silent fresh start on a missing
// file.
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
	if recs, err := LoadGridCheckpoint(path, cfg, "fp-a", ShardSpec{}); err != nil || len(recs) != 1 {
		t.Fatalf("round trip: %v, %d records", err, len(recs))
	}
	if _, err := LoadGridCheckpoint(path, cfg, "fp-b", ShardSpec{}); err == nil {
		t.Fatal("foreign fingerprint accepted")
	}
	if _, err := LoadGridCheckpoint(path, cfg, "fp-a", ShardSpec{Index: 1, Count: 2}); err == nil {
		t.Fatal("wrong shard accepted")
	}
	recs, err := LoadGridCheckpoint(filepath.Join(dir, "absent.jsonl"), cfg, "fp-a", ShardSpec{})
	if err != nil || recs != nil {
		t.Fatalf("missing file: %v, %v (want nil, nil)", recs, err)
	}
}

// TestMergeGridCheckpoints runs a 3-way sharded grid with per-shard
// checkpoints, merges them, and pins the rebuilt grid summary against
// the unsharded run's — plus the refusal paths for incomplete and
// inconsistent shard sets.
func TestMergeGridCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := smallGridConfig()
	fp := GridFingerprint(cfg, "")

	cleanDir := t.TempDir()
	streamWithCheckpoint(t, cfg, cleanDir, nil)
	wantSummary, err := os.ReadFile(filepath.Join(cleanDir, "full_grid_summary.csv"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const n = 3
	for i := 0; i < n; i++ {
		shard := ShardSpec{Index: i, Count: n}
		cw, err := CreateGridCheckpoint(filepath.Join(dir, GridCheckpointName(shard)), fp, shard, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := StreamScenarioGrid(cfg, NewCheckpointSink(cw, 0), StreamOptions{Shard: shard}); err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	records, err := MergeGridCheckpoints(dir, cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got := csvBytes(t, GridSummaryFromRecords(cfg, records)); !bytes.Equal(got, wantSummary) {
		t.Fatal("merged shard summary differs from unsharded full_grid_summary.csv")
	}
	summaries := make([]*CellSummary, 0, len(records))
	for _, rec := range records {
		if rec.Summary == nil {
			t.Fatalf("cell %d record carries no summary", rec.Index)
		}
		summaries = append(summaries, rec.Summary)
	}
	mergedStream, err := StreamSummaryTable(summaries)
	if err != nil {
		t.Fatal(err)
	}
	wantStream, err := os.ReadFile(filepath.Join(cleanDir, "full_grid_stream_summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, mergedStream), wantStream) {
		t.Fatal("checkpoint-merged stream summary differs from unsharded run's")
	}

	// An unfinished shard: its checkpoint holds the header only.
	last := ShardSpec{Index: n - 1, Count: n}
	cw, err := CreateGridCheckpoint(filepath.Join(dir, GridCheckpointName(last)), fp, last, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeGridCheckpoints(dir, cfg, fp); err == nil {
		t.Fatal("incomplete cell coverage accepted")
	}
	if err := os.Remove(filepath.Join(dir, GridCheckpointName(ShardSpec{Index: 1, Count: n}))); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeGridCheckpoints(dir, cfg, fp); err == nil {
		t.Fatal("missing shard checkpoint accepted")
	}
}

// TestShardSpecParsing covers the CLI surface of the shard axis.
func TestShardSpecParsing(t *testing.T) {
	if s, err := ParseShard(""); err != nil || s.String() != "0/1" {
		t.Fatalf("empty spec: %v, %v", s, err)
	}
	if s, err := ParseShard("2/5"); err != nil || !s.Owns(7) || s.Owns(8) {
		t.Fatalf("2/5: %v, %v", s, err)
	}
	for _, bad := range []string{"2", "a/b", "5/5", "-1/3", "0/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
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
