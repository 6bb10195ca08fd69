package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
)

// ShardSpec deterministically partitions the grid's cell axis across N
// cooperating processes: shard i of n owns every cell whose global
// index is congruent to i mod n. The zero value means "the whole grid"
// (shard 0 of 1). Because ownership is a pure function of the global
// cell index, any shard split covers every cell exactly once and the
// per-cell results are independent of the split — merging shard
// outputs in cell-index order reproduces the unsharded outputs byte
// for byte (runpool's determinism contract, extended across
// processes).
type ShardSpec struct {
	// Index is the shard's position in [0, Count).
	Index int
	// Count is the total number of shards (0 is normalized to 1).
	Count int
}

// normalized maps the zero value to the canonical 0/1 whole-grid spec.
func (s ShardSpec) normalized() ShardSpec {
	if s.Count == 0 && s.Index == 0 {
		return ShardSpec{Index: 0, Count: 1}
	}
	return s
}

// Validate rejects impossible specs.
func (s ShardSpec) Validate() error {
	s = s.normalized()
	if s.Count < 1 {
		return fmt.Errorf("experiments: shard count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("experiments: shard index %d outside [0,%d)", s.Index, s.Count)
	}
	return nil
}

// Owns reports whether this shard runs the given global cell index.
func (s ShardSpec) Owns(cell int) bool {
	s = s.normalized()
	return cell%s.Count == s.Index
}

// String renders the spec in the CLI's "i/n" form.
func (s ShardSpec) String() string {
	s = s.normalized()
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// ParseShard parses a CLI "i/n" shard spec; the empty string means the
// whole grid.
func ParseShard(spec string) (ShardSpec, error) {
	if spec == "" {
		return ShardSpec{}, nil
	}
	lo, hi, ok := strings.Cut(spec, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("experiments: shard spec %q is not i/n", spec)
	}
	i, err1 := strconv.Atoi(lo)
	n, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil || n < 1 {
		return ShardSpec{}, fmt.Errorf("experiments: shard spec %q is not i/n", spec)
	}
	s := ShardSpec{Index: i, Count: n}
	if err := s.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return s, nil
}

// StreamOptions shape one streaming execution of a grid without being
// part of the experiment's identity: the same grid config streamed
// under any shard split or restore set produces the same per-cell
// events.
type StreamOptions struct {
	// Shard restricts execution to the cells this shard owns (zero
	// value: the whole grid).
	Shard ShardSpec
	// Restored maps global cell indices to checkpointed audits. Those
	// cells are not re-simulated: they stream as Restored cells carrying
	// only their audit event, so summaries still cover the whole grid
	// while an interrupted run resumes where it stopped.
	Restored map[int]adversary.Report
	// Cached maps global cell indices to previously completed cells
	// (rows and audit). Those cells are not re-simulated either, but —
	// unlike Restored — they replay their full row stream, so the sink
	// observes a byte-identical event sequence to a fresh simulation.
	// This is the simulation daemon's completed-cell cache seam: entries
	// must be exact prior results for this cell's configuration (see
	// GridCellFingerprint) and are never mutated by the driver.
	Cached map[int]*GridCell
	// Interrupt, when non-nil, is polled before each cell executes; once
	// it returns true every remaining cell fails with ErrInterrupted
	// instead of simulating, so the stream stops at a cell boundary:
	// cells completed before the interrupt have fully streamed (and, with
	// a CheckpointSink attached, are durable), cells after it cost
	// nothing. This is the graceful-shutdown seam — a later run restoring
	// the checkpoint resumes exactly where the interrupt landed.
	Interrupt func() bool
}

// ErrInterrupted is the per-cell failure StreamScenarioGrid reports once
// StreamOptions.Interrupt fires; test with errors.Is (the run pool wraps
// it with the failing cell's index).
var ErrInterrupted = errors.New("experiments: grid interrupted")

// gridCellOut is one streamed cell in flight between the run pool and
// the fold.
type gridCellOut struct {
	cell     GridCell
	restored bool
}

// emitGridCell streams one completed cell into the sink: its rows
// (unless restored), its audit, and the cell close. One scratch row is
// reused across rounds per the Row.Values contract.
func emitGridCell(sink Sink, cell Cell, c *GridCell) error {
	if err := sink.CellStart(cell, outcomeColumns); err != nil {
		return err
	}
	if !cell.Restored {
		if err := emitSeriesRows(sink, cell, c.Final, c.Tentative, c.None); err != nil {
			return err
		}
	}
	if err := sink.AuditEvent(cell, c.Audit); err != nil {
		return err
	}
	return sink.CellDone(cell)
}

// StreamScenarioGrid executes the grid's cells through the
// deterministic run pool and streams each completed cell into the sink
// in ascending global-index order, retaining only the in-flight cells
// (bounded by worker completion skew) instead of the whole grid —
// O(rounds × workers) live rows instead of O(cells × rounds). The
// differential tests check its event stream against the
// collect-then-replay execution it replaced.
func StreamScenarioGrid(cfg ScenarioGridConfig, sink Sink, opt StreamOptions) error {
	if sink == nil {
		return errors.New("experiments: streaming grid needs a sink")
	}
	sink = instrumentSink(sink)
	scenarios, err := resolveGrid(&cfg)
	if err != nil {
		return err
	}
	if err := opt.Shard.Validate(); err != nil {
		return err
	}
	owned := ownedCells(cfg, opt.Shard)
	return runpool.SweepFold(len(owned), cfg.Workers, newArena,
		func(i int, arena *protocol.Arena) (gridCellOut, error) {
			return runOwnedCell(cfg, scenarios, owned[i], arena, opt)
		},
		func(i int, out gridCellOut) error {
			return emitGridCell(sink, Cell{Index: owned[i], Name: out.cell.Scenario, Seed: out.cell.Seed, Restored: out.restored}, &out.cell)
		})
}

// ownedCells lists the global cell indices this shard runs, ascending.
func ownedCells(cfg ScenarioGridConfig, shard ShardSpec) []int {
	cells := len(cfg.Scenarios) * len(cfg.Seeds)
	var owned []int
	for cell := 0; cell < cells; cell++ {
		if shard.Owns(cell) {
			owned = append(owned, cell)
		}
	}
	return owned
}

// runOwnedCell computes one owned cell, or replays it without
// simulating: a checkpointed audit (restore set, no rows) or a cached
// prior result (rows included). Restore wins when a cell is in both —
// its rows were already delivered by the interrupted run.
func runOwnedCell(cfg ScenarioGridConfig, scenarios []adversary.Scenario, cell int, arena *protocol.Arena, opt StreamOptions) (gridCellOut, error) {
	if rep, ok := opt.Restored[cell]; ok {
		si, ki := cell/len(cfg.Seeds), cell%len(cfg.Seeds)
		return gridCellOut{
			cell:     GridCell{Scenario: cfg.Scenarios[si], Seed: cfg.Seeds[ki], Audit: rep},
			restored: true,
		}, nil
	}
	if c, ok := opt.Cached[cell]; ok {
		return gridCellOut{cell: *c}, nil
	}
	if opt.Interrupt != nil && opt.Interrupt() {
		return gridCellOut{}, ErrInterrupted
	}
	c, err := simulateGridCell(cfg, scenarios, cell, arena)
	return gridCellOut{cell: c}, err
}
