package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// Grid checkpoints make an interrupted -full grid resumable and a
// sharded grid mergeable: one JSON header line identifying the grid,
// then one JSON line per completed cell, appended (and flushed) as the
// in-order fold closes each cell. Because the fold emits cells in
// ascending owned order, a checkpoint is always an order-preserving
// prefix of the full record sequence — possibly ending in one torn
// line if the process died mid-write, which the loader drops. Each
// record carries the cell's audit (enough to rebuild
// full_grid_summary.csv) and its CellSummary (enough to rebuild the
// stream summary), so shard checkpoints double as the mergeable
// partial summaries.

// gridCheckpointVersion guards the record layout.
const gridCheckpointVersion = 1

// GridCellRecord is one checkpointed cell.
type GridCellRecord struct {
	Index    int              `json:"index"`
	Scenario string           `json:"scenario"`
	Seed     int64            `json:"seed"`
	Audit    adversary.Report `json:"audit"`
	Summary  *CellSummary     `json:"summary,omitempty"`
}

// gridCheckpointHeader is the first line of a checkpoint file.
type gridCheckpointHeader struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Shard       string `json:"shard"`
}

// GridFingerprint digests every config knob that shapes a grid's
// results. A resume or shard merge refuses checkpoints whose
// fingerprint differs — mixing results from different grids is the
// checkpoint-format failure mode worth failing loudly on. weightsSpec
// is the CLI's -weights string (profiles are functions and cannot be
// digested directly).
func GridFingerprint(cfg ScenarioGridConfig, weightsSpec string) string {
	return fmt.Sprintf("v%d|scenarios=%s|seeds=%v|nodes=%d|rounds=%d|fanout=%d|params=%+v|stake=%+v|backend=%d|weights=%s|sparse=%d",
		gridCheckpointVersion, strings.Join(cfg.Scenarios, ","), cfg.Seeds,
		cfg.Nodes, cfg.Rounds, cfg.Fanout, cfg.Params, cfg.StakeDist,
		cfg.WeightBackend, weightsSpec, cfg.Sparse)
}

// GridCellFingerprint digests the configuration one grid cell's results
// depend on: the grid fingerprint with the scenario and seed axes
// collapsed to this cell's (scenario, seed) pair. A cell's simulation
// reads nothing else from the grid shape — not the other scenarios, not
// the other seeds, not the cell's index — so two grids sharing a cell
// key produce bit-identical rows and audit for it. This is the
// completed-cell cache key the simulation daemon uses to skip repeated
// cells across otherwise different sweeps.
func GridCellFingerprint(cfg ScenarioGridConfig, weightsSpec, scenario string, seed int64) string {
	cfg.Scenarios = []string{scenario}
	cfg.Seeds = []int64{seed}
	return "cell|" + GridFingerprint(cfg, weightsSpec)
}

// GridCheckpointName is the checkpoint filename for one shard of the
// grid ("full_grid_checkpoint_<i>of<n>.jsonl"; the whole grid is shard
// 0 of 1).
func GridCheckpointName(shard ShardSpec) string {
	shard = shard.normalized()
	return fmt.Sprintf("full_grid_checkpoint_%dof%d.jsonl", shard.Index, shard.Count)
}

// LoadGridCheckpoint reads a checkpoint file, validating its header
// against the expected fingerprint and shard and every record against
// cfg's grid (see checkRecord). A missing file is a fresh start (nil
// records, no error); a torn final line — the signature of a killed
// process — is dropped. Records are returned in file order.
func LoadGridCheckpoint(path string, cfg ScenarioGridConfig, fingerprint string, shard ShardSpec) ([]GridCellRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, nil // empty file: treat as fresh
	}
	var hdr gridCheckpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("experiments: checkpoint %s: bad header: %w", path, err)
	}
	if hdr.Version != gridCheckpointVersion {
		return nil, fmt.Errorf("experiments: checkpoint %s: version %d, want %d", path, hdr.Version, gridCheckpointVersion)
	}
	if hdr.Fingerprint != fingerprint {
		return nil, fmt.Errorf("experiments: checkpoint %s was written by a different grid configuration; rerun without -resume or delete it", path)
	}
	if hdr.Shard != shard.String() {
		return nil, fmt.Errorf("experiments: checkpoint %s covers shard %s, want %s", path, hdr.Shard, shard)
	}
	var records []GridCellRecord
	next := 0
	for line := 2; sc.Scan(); line++ {
		var rec GridCellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break // torn final line from an interrupted write
		}
		if err := checkRecord(&cfg, shard, &rec, next); err != nil {
			return nil, fmt.Errorf("experiments: checkpoint %s line %d: %w", path, line, err)
		}
		records = append(records, rec)
		next = rec.Index + 1
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return records, nil
}

// checkRecord rejects a record the summaries cannot use: a cell outside
// cfg's grid or naming another cell's scenario or seed, a cell the
// shard does not own, a cell below next (records ascend strictly), or
// a summary whose shape the merge cannot fold.
func checkRecord(cfg *ScenarioGridConfig, shard ShardSpec, rec *GridCellRecord, next int) error {
	if err := checkGridCell(cfg, rec.Index, rec.Scenario, rec.Seed); err != nil {
		return err
	}
	if !shard.Owns(rec.Index) {
		return fmt.Errorf("cell %d is not owned by shard %s", rec.Index, shard)
	}
	if rec.Index < next {
		return fmt.Errorf("cell %d follows cell %d", rec.Index, next-1)
	}
	if rec.Summary == nil {
		return nil
	}
	if rec.Summary.Cell != rec.Index {
		return fmt.Errorf("cell %d carries the summary of cell %d", rec.Index, rec.Summary.Cell)
	}
	if err := rec.Summary.check(); err != nil {
		return fmt.Errorf("cell %d: %w", rec.Index, err)
	}
	return nil
}

// CheckpointWriter appends cell records to a checkpoint file, flushing
// and syncing after each so a killed process loses at most the cell in
// flight.
type CheckpointWriter struct {
	f *os.File
	w *bufio.Writer
}

// CreateGridCheckpoint (re)creates a checkpoint file: header first,
// then any already-completed records (a resume rewrites the loaded
// prefix, healing a torn tail in place).
func CreateGridCheckpoint(path, fingerprint string, shard ShardSpec, records []GridCellRecord) (*CheckpointWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	cw := &CheckpointWriter{f: f, w: bufio.NewWriter(f)}
	hdr := gridCheckpointHeader{Version: gridCheckpointVersion, Fingerprint: fingerprint, Shard: shard.String()}
	if err := cw.writeLine(hdr); err != nil {
		f.Close()
		return nil, err
	}
	for _, rec := range records {
		if err := cw.writeLine(rec); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := cw.sync(); err != nil {
		f.Close()
		return nil, err
	}
	return cw, nil
}

func (cw *CheckpointWriter) writeLine(v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := cw.w.Write(blob); err != nil {
		return err
	}
	return cw.w.WriteByte('\n')
}

func (cw *CheckpointWriter) sync() error {
	if err := cw.w.Flush(); err != nil {
		return err
	}
	if m := obs.DefaultPool(); m != nil {
		m.CheckpointFlushes.Add(1)
	}
	return cw.f.Sync()
}

// Record appends one cell and makes it durable.
func (cw *CheckpointWriter) Record(rec GridCellRecord) error {
	if err := cw.writeLine(rec); err != nil {
		return err
	}
	return cw.sync()
}

// Close flushes and closes the file.
func (cw *CheckpointWriter) Close() error {
	if err := cw.w.Flush(); err != nil {
		cw.f.Close()
		return err
	}
	return cw.f.Close()
}

// CheckpointSink records each completed cell into a CheckpointWriter:
// the audit it observed plus a CellSummary it accumulates from the
// rows (identical, by determinism, to the SummarySink's). Restored
// cells are skipped — their records are already in the file. Place it
// last in a MultiSink so a cell is only marked durable after every
// other sink has fully consumed it.
type CheckpointSink struct {
	w       *CheckpointWriter
	sketchK int
	cur     *CellSummary
	audit   adversary.Report
}

// NewCheckpointSink records into w, building summaries with the given
// sketch width (use the SummarySink's so restored summaries merge).
func NewCheckpointSink(w *CheckpointWriter, sketchK int) *CheckpointSink {
	return &CheckpointSink{w: w, sketchK: sketchK}
}

func (s *CheckpointSink) CellStart(cell Cell, columns []string) error {
	if cell.Restored {
		s.cur = nil
		return nil
	}
	s.cur = newCellSummary(cell.Index, columns, s.sketchK)
	s.audit = adversary.Report{}
	return nil
}

func (s *CheckpointSink) Row(cell Cell, row Row) error {
	if s.cur == nil {
		return nil
	}
	return s.cur.observe(row.Values)
}

func (s *CheckpointSink) AuditEvent(cell Cell, report adversary.Report) error {
	if s.cur != nil {
		s.audit = report
	}
	return nil
}

func (s *CheckpointSink) CellDone(cell Cell) error {
	if s.cur == nil {
		return nil
	}
	rec := GridCellRecord{Index: cell.Index, Scenario: cell.Name, Seed: cell.Seed, Audit: s.audit, Summary: s.cur}
	s.cur = nil
	return s.w.Record(rec)
}

// MergeGridCheckpoints discovers every shard checkpoint in dir,
// validates the set is one complete n-way split of cfg's grid
// (consistent headers, every shard file present, every record valid,
// every cell recorded exactly once), and returns the records sorted by
// cell index — the order every summary derives from, which is what
// makes the merge shard-split-invariant.
func MergeGridCheckpoints(dir string, cfg ScenarioGridConfig, fingerprint string) ([]GridCellRecord, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "full_grid_checkpoint_*of*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("experiments: no grid checkpoints in %s", dir)
	}
	sort.Strings(matches)
	count := -1
	seenShards := map[int]bool{}
	var all []GridCellRecord
	for _, path := range matches {
		var i, n int
		if _, err := fmt.Sscanf(filepath.Base(path), "full_grid_checkpoint_%dof%d.jsonl", &i, &n); err != nil {
			return nil, fmt.Errorf("experiments: unrecognised checkpoint name %s", path)
		}
		if count == -1 {
			count = n
		} else if n != count {
			return nil, fmt.Errorf("experiments: %s mixes shard splits (%d-way and %d-way)", dir, count, n)
		}
		shard := ShardSpec{Index: i, Count: n}
		if err := shard.Validate(); err != nil {
			return nil, err
		}
		recs, err := LoadGridCheckpoint(path, cfg, fingerprint, shard)
		if err != nil {
			return nil, err
		}
		seenShards[i] = true
		all = append(all, recs...)
	}
	for i := 0; i < count; i++ {
		if !seenShards[i] {
			return nil, fmt.Errorf("experiments: shard %d/%d checkpoint missing from %s", i, count, dir)
		}
	}
	seen := make(map[int]bool, len(all))
	for _, rec := range all {
		if seen[rec.Index] {
			return nil, fmt.Errorf("experiments: cell %d recorded twice across shard checkpoints", rec.Index)
		}
		seen[rec.Index] = true
	}
	if wantCells := len(cfg.Scenarios) * len(cfg.Seeds); len(all) != wantCells {
		return nil, fmt.Errorf("experiments: shard checkpoints cover %d of %d cells; finish every shard before merging", len(all), wantCells)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Index < all[j].Index })
	return all, nil
}

// GridSummaryFromRecords rebuilds the audit-counter grid summary
// (full_grid_summary.csv) from checkpoint records, byte-identical to
// the table an unsharded run writes.
func GridSummaryFromRecords(cfg ScenarioGridConfig, records []GridCellRecord) *stats.Table {
	cells := make([]int, len(records))
	reports := make([]adversary.Report, len(records))
	for i, rec := range records {
		cells[i] = rec.Index
		reports[i] = rec.Audit
	}
	return gridSummaryTable(cfg, cells, reports)
}
