package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// TestLoadGridCheckpointRejectsBadRecords feeds the loader checkpoint
// files whose header is valid but whose records the summaries cannot
// use; each must fail with an error naming the file and line instead of
// reaching gridSummaryTable or SummarySink.Table.
func TestLoadGridCheckpointRejectsBadRecords(t *testing.T) {
	cfg := ScenarioGridConfig{Scenarios: []string{adversary.HonestBaseline}, Seeds: []int64{1, 2, 3}}
	fp := GridFingerprint(cfg, "")
	cell := func(i int) GridCellRecord {
		return GridCellRecord{Index: i, Scenario: adversary.HonestBaseline, Seed: int64(i + 1)}
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
		records []GridCellRecord
		garble  int // a line to overwrite with a non-record; 0 for none
	}{
		{"negative index", []GridCellRecord{cell(0), cell(-1)}, 0},
		{"index past the grid", []GridCellRecord{cell(3)}, 0},
		{"descending", []GridCellRecord{cell(1), cell(0)}, 0},
		{"repeated", []GridCellRecord{cell(0), cell(0)}, 0},
		{"not starting at cell 0", []GridCellRecord{cell(1)}, 0},
		{"gapped", []GridCellRecord{cell(0), cell(2)}, 0},
		{"foreign scenario", []GridCellRecord{{Index: 0, Scenario: "crash_churn", Seed: 1}}, 0},
		{"foreign seed", []GridCellRecord{cell(0), {Index: 1, Scenario: adversary.HonestBaseline, Seed: 1}}, 0},
		{"summary without columns", []GridCellRecord{withSummary(cell(0), &CellSummary{Cell: 0})}, 0},
		{"summary of another cell", []GridCellRecord{withSummary(cell(0), summary(1))}, 0},
		{"summary short of sketches", []GridCellRecord{withSummary(cell(0), &CellSummary{
			Cell: 0, Columns: outcomeColumns, Moments: make([]stats.Moments, 3), Sketches: summary(0).Sketches[:2],
		})}, 0},
		{"summary with a nil sketch", []GridCellRecord{withSummary(cell(0), nilSketch)}, 0},
		{"garbled record before complete ones", []GridCellRecord{cell(0), cell(1), cell(2)}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), GridCheckpointName(ShardSpec{}))
			cw, err := CreateGridCheckpoint(path, fp, ShardSpec{}, tc.records)
			if err != nil {
				t.Fatal(err)
			}
			if err := cw.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.garble > 0 {
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.SplitAfter(string(blob), "\n")
				lines[tc.garble-1] = "garbled record\n"
				if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err = LoadGridCheckpoint(path, cfg, fp)
			if err == nil {
				t.Fatal("bad record accepted")
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error %q does not name the file and line", err)
			}
		})
	}
}

// FuzzLoadGridCheckpoint mutates a real checkpoint: whatever the loader
// accepts must be cells 0, 1, 2, … in order and fold through
// SummarySink.Restore + Table and gridSummaryTable without panicking.
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
	f.Add([]byte(header + "\n" + `{"index":1,"scenario":"crash_churn","seed":1,"audit":{}}` + "\n"))
	f.Add([]byte(header[:len(header)/2]))
	lines := strings.SplitAfter(string(ckpt), "\n")
	f.Add([]byte(lines[0] + "garbled record\n" + strings.Join(lines[2:], "")))

	// Each fuzz worker runs this setup once and its inputs one at a
	// time, so one scratch file per worker serves every input.
	scratch := filepath.Join(f.TempDir(), "fuzz.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(scratch, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, err := LoadGridCheckpoint(scratch, cfg, fp)
		if err != nil {
			return
		}
		cells := make([]int, len(records))
		reports := make([]adversary.Report, len(records))
		for i, rec := range records {
			if rec.Index != i {
				t.Fatalf("record %d holds cell %d", i, rec.Index)
			}
			cells[i], reports[i] = rec.Index, rec.Audit
		}
		sink := NewSummarySink(0)
		sink.Restore(records)
		_, _ = sink.Table()
		gridSummaryTable(cfg, cells, reports)
	})
}

// TestCheckpointCutAtEveryOffset cuts a finished grid's checkpoint at
// every byte offset, as a process killed mid-write may leave it. The
// loader must return exactly the records whose JSON is complete — a cut
// inside the header line is a fresh start, like an empty file — and a
// resume from each record count must rewrite the checkpoint and both
// summaries byte for byte as the uninterrupted run wrote them.
func TestCheckpointCutAtEveryOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := smallGridConfig()
	cfg.Workers = 2
	fp := GridFingerprint(cfg, "")
	name := GridCheckpointName(ShardSpec{})
	cleanDir := t.TempDir()
	streamWithCheckpoint(t, cfg, cleanDir, nil)
	full, err := os.ReadFile(filepath.Join(cleanDir, name))
	if err != nil {
		t.Fatal(err)
	}
	all, err := LoadGridCheckpoint(filepath.Join(cleanDir, name), cfg, fp)
	if err != nil || len(all) != len(cfg.Scenarios)*len(cfg.Seeds) {
		t.Fatalf("uncut checkpoint: %d records, %v", len(all), err)
	}
	// Line 0 is the header, line k+1 record k; jsonEnd[k] is the offset
	// just past record k's JSON, before its newline.
	lines := bytes.SplitAfter(full, []byte("\n"))
	starts := make([]int, len(lines))
	for i := 1; i < len(lines); i++ {
		starts[i] = starts[i-1] + len(lines[i-1])
	}
	jsonEnd := make([]int, len(all))
	for k := range all {
		jsonEnd[k] = starts[k+2] - 1
	}

	scratch := filepath.Join(t.TempDir(), name)
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(scratch, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := LoadGridCheckpoint(scratch, cfg, fp)
		if err != nil {
			t.Fatalf("cut at %d of %d bytes: %v", cut, len(full), err)
		}
		want := 0
		for want < len(all) && cut >= jsonEnd[want] {
			want++
		}
		if len(recs) != want || (want > 0 && !reflect.DeepEqual(recs, all[:want])) {
			t.Fatalf("cut at %d of %d bytes: loaded %d records, want the first %d", cut, len(full), len(recs), want)
		}
	}

	// One resume per record count: torn inside the header for none,
	// torn halfway through the next record for some, uncut for all.
	for k := 0; k <= len(all); k++ {
		cut := len(full)
		switch {
		case k == 0:
			cut = len(lines[0]) / 2
		case k < len(all):
			cut = starts[k+1] + len(lines[k+1])/2
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		prior, err := LoadGridCheckpoint(filepath.Join(dir, name), cfg, fp)
		if err != nil || len(prior) != k {
			t.Fatalf("cut at %d: %d records, %v (want %d)", cut, len(prior), err, k)
		}
		streamWithCheckpoint(t, cfg, dir, prior)
		for _, file := range []string{name, "full_grid_summary.csv", "full_grid_stream_summary.csv"} {
			clean, err := os.ReadFile(filepath.Join(cleanDir, file))
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(clean, resumed) {
				t.Fatalf("%d records restored: %s differs from the uninterrupted run's", k, file)
			}
		}
	}
}
