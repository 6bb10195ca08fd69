package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// TestLoadGridCheckpointRejectsBadRecords feeds the loaders checkpoint
// files whose header is valid but whose records the summaries cannot
// use; each must fail with an error naming the file and line instead of
// reaching GridSummaryFromRecords or SummarySink.Table.
func TestLoadGridCheckpointRejectsBadRecords(t *testing.T) {
	cfg := ScenarioGridConfig{Scenarios: []string{adversary.HonestBaseline}, Seeds: []int64{1, 2}}
	fp := GridFingerprint(cfg, "")
	cell := func(i int) GridCellRecord {
		return GridCellRecord{Index: i, Scenario: adversary.HonestBaseline, Seed: cfg.Seeds[i&1]}
	}
	summary := func(i int) *CellSummary { return newCellSummary(i, outcomeColumns, 0) }
	withSummary := func(rec GridCellRecord, cs *CellSummary) GridCellRecord {
		rec.Summary = cs
		return rec
	}
	nilSketch := summary(0)
	nilSketch.Sketches[1] = nil
	cases := []struct {
		name    string
		shard   ShardSpec
		records []GridCellRecord
	}{
		{"negative index", ShardSpec{}, []GridCellRecord{cell(0), cell(-1)}},
		{"index past the grid", ShardSpec{}, []GridCellRecord{cell(2)}},
		{"descending", ShardSpec{}, []GridCellRecord{cell(1), cell(0)}},
		{"repeated", ShardSpec{}, []GridCellRecord{cell(0), cell(0)}},
		{"not owned by the shard", ShardSpec{Index: 1, Count: 2}, []GridCellRecord{cell(0)}},
		{"foreign scenario", ShardSpec{}, []GridCellRecord{{Index: 0, Scenario: "crash_churn", Seed: 1}}},
		{"foreign seed", ShardSpec{}, []GridCellRecord{{Index: 1, Scenario: adversary.HonestBaseline, Seed: 1}}},
		{"summary without columns", ShardSpec{}, []GridCellRecord{withSummary(cell(0), &CellSummary{Cell: 0})}},
		{"summary of another cell", ShardSpec{}, []GridCellRecord{withSummary(cell(0), summary(1))}},
		{"summary short of sketches", ShardSpec{}, []GridCellRecord{withSummary(cell(0), &CellSummary{
			Cell: 0, Columns: outcomeColumns, Moments: make([]stats.Moments, 3), Sketches: summary(0).Sketches[:2],
		})}},
		{"summary with a nil sketch", ShardSpec{}, []GridCellRecord{withSummary(cell(0), nilSketch)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, GridCheckpointName(tc.shard))
			cw, err := CreateGridCheckpoint(path, fp, tc.shard, tc.records)
			if err != nil {
				t.Fatal(err)
			}
			if err := cw.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = LoadGridCheckpoint(path, cfg, fp, tc.shard)
			if err == nil {
				t.Fatal("bad record accepted")
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error %q does not name the file and line", err)
			}
			if tc.shard.normalized().Count == 1 {
				if _, err := MergeGridCheckpoints(dir, cfg, fp); err == nil {
					t.Fatal("merge accepted a bad record")
				}
			}
		})
	}
}

// FuzzLoadGridCheckpoint mutates a real checkpoint: whatever the loader
// accepts must fold through SummarySink.Restore + Table and
// GridSummaryFromRecords without panicking.
func FuzzLoadGridCheckpoint(f *testing.F) {
	cfg := FullScenarioGridConfig()
	cfg.Scenarios = []string{adversary.HonestBaseline, "crash_churn"}
	cfg.Seeds = []int64{1}
	cfg.Nodes = 12
	cfg.Rounds = 2
	fp := GridFingerprint(cfg, "")
	path := filepath.Join(f.TempDir(), GridCheckpointName(ShardSpec{}))
	cw, err := CreateGridCheckpoint(path, fp, ShardSpec{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := StreamScenarioGrid(cfg, NewCheckpointSink(cw, 0), StreamOptions{}); err != nil {
		f.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		f.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)
	header, _, _ := strings.Cut(string(ckpt), "\n")
	f.Add([]byte(header + "\n" + `{"index":0,"scenario":"honest_baseline","seed":1,"audit":{}}` + "\n" +
		`{"index":-1,"scenario":"honest_baseline","seed":1,"audit":{}}` + "\n"))
	f.Add([]byte(header + "\n" + `{"index":0,"scenario":"honest_baseline","seed":1,"audit":{},"summary":{"cell":0}}` + "\n"))

	// Each fuzz worker runs this setup once and its inputs one at a
	// time, so one scratch file per worker serves every input.
	scratch := filepath.Join(f.TempDir(), "fuzz.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(scratch, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, err := LoadGridCheckpoint(scratch, cfg, fp, ShardSpec{})
		if err != nil {
			return
		}
		sink := NewSummarySink(0)
		sink.Restore(records)
		_, _ = sink.Table()
		GridSummaryFromRecords(cfg, records)
	})
}
