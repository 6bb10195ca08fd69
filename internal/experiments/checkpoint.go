package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/obs"
)

// Grid checkpoints make an interrupted -full grid resumable: one JSON
// header line identifying the grid, then one JSON line per completed
// cell, appended (and flushed) as the in-order fold closes each cell.
// Because the fold emits cells 0, 1, 2, … in order, a checkpoint is
// always a prefix of the full record sequence — possibly ending in one
// torn line if the process died mid-write, which the loader drops. Each
// record carries the cell's audit (enough to rebuild
// full_grid_summary.csv) and its CellSummary (enough to rebuild the
// stream summary), so a resumed run's summaries cover the restored
// cells without re-simulating them.

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

// gridCheckpointShard is the shard field of every checkpoint header:
// the whole grid, shard 0 of 1. Headers keep the field so a checkpoint
// from when grids could be split fails loudly instead of resuming.
const gridCheckpointShard = "0/1"

// gridCheckpointHeader is the first line of a checkpoint file.
type gridCheckpointHeader struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Shard       string `json:"shard"`
}

// GridFingerprint digests every config knob that shapes a grid's
// results. A resume refuses checkpoints whose fingerprint differs —
// mixing results from different grids is the checkpoint-format failure
// mode worth failing loudly on. weightsSpec is the CLI's -weights
// string (profiles are functions and cannot be digested directly).
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

// ShardSpec is what is left of the grid's retired shard axis: grids no
// longer split across processes. The empty type stays only because the
// benchmark module, whose sources are pinned, compiles against
// GridCheckpointName and CreateGridCheckpoint, which take it.
type ShardSpec struct{}

// GridCheckpointName is the checkpoint filename. It takes a ShardSpec
// only for the benchmark module's sake and always returns the one name
// a grid's checkpoint has.
func GridCheckpointName(ShardSpec) string { return "full_grid_checkpoint_0of1.jsonl" }

// LoadGridCheckpoint reads a checkpoint file, validating its header
// against the expected fingerprint and every record against cfg's grid
// (see checkRecord). A missing or empty file is a fresh start (nil
// records, no error), and so is a file whose first line has no newline
// and does not parse as a header: the signature of a process killed
// while writing the header. A torn final record line, one without a
// newline, is dropped the same way; any other line that does not parse
// is an error naming it, since complete records may follow it. Records
// are returned in file order.
func LoadGridCheckpoint(path string, cfg ScenarioGridConfig, fingerprint string) ([]GridCellRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	line, err := r.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return nil, err
	}
	var hdr gridCheckpointHeader
	if jerr := json.Unmarshal(line, &hdr); jerr != nil {
		if err == io.EOF {
			return nil, nil // empty file or torn header: treat as fresh
		}
		return nil, fmt.Errorf("experiments: checkpoint %s: bad header: %w", path, jerr)
	}
	if hdr.Version != gridCheckpointVersion {
		return nil, fmt.Errorf("experiments: checkpoint %s: version %d, want %d", path, hdr.Version, gridCheckpointVersion)
	}
	if hdr.Fingerprint != fingerprint {
		return nil, fmt.Errorf("experiments: checkpoint %s was written by a different grid configuration; rerun without -resume or delete it", path)
	}
	if hdr.Shard != gridCheckpointShard {
		return nil, fmt.Errorf("experiments: checkpoint %s names shard %q, not the whole grid; sharded grids are gone, so rerun without -resume or delete it", path, hdr.Shard)
	}
	var records []GridCellRecord
	for lineNo := 2; err != io.EOF; lineNo++ {
		if line, err = r.ReadBytes('\n'); err != nil && err != io.EOF {
			return nil, err
		}
		var rec GridCellRecord
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			if err == io.EOF {
				break // torn final line from an interrupted write
			}
			return nil, fmt.Errorf("experiments: checkpoint %s line %d: bad record: %w", path, lineNo, jerr)
		}
		if cerr := checkRecord(&cfg, &rec, len(records)); cerr != nil {
			return nil, fmt.Errorf("experiments: checkpoint %s line %d: %w", path, lineNo, cerr)
		}
		records = append(records, rec)
	}
	return records, nil
}

// checkRecord rejects a record the summaries cannot use: a cell outside
// cfg's grid or naming another cell's scenario or seed, any cell but
// next (records are cells 0, 1, 2, … in order), or a summary whose
// shape the merge cannot fold.
func checkRecord(cfg *ScenarioGridConfig, rec *GridCellRecord, next int) error {
	if err := checkGridCell(cfg, rec.Index, rec.Scenario, rec.Seed); err != nil {
		return err
	}
	if rec.Index != next {
		return fmt.Errorf("cell %d where cell %d belongs", rec.Index, next)
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
// prefix, healing a torn tail in place). It ignores its ShardSpec,
// which stays for the benchmark module's sake.
func CreateGridCheckpoint(path, fingerprint string, _ ShardSpec, records []GridCellRecord) (*CheckpointWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	cw := &CheckpointWriter{f: f, w: bufio.NewWriter(f)}
	hdr := gridCheckpointHeader{Version: gridCheckpointVersion, Fingerprint: fingerprint, Shard: gridCheckpointShard}
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
