package experiments

import (
	"errors"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
)

// StreamOptions shape one streaming execution of a grid without being
// part of the experiment's identity: the same grid config streamed
// under any restore set produces the same per-cell events.
type StreamOptions struct {
	// Restored maps cell indices to checkpointed audits. Those
	// cells are not re-simulated: they stream as Restored cells carrying
	// only their audit event, so summaries still cover the whole grid
	// while an interrupted run resumes where it stopped.
	Restored map[int]adversary.Report
	// Cached maps cell indices to previously completed cells
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
// in ascending cell order, retaining only the in-flight cells
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
	return runpool.SweepFold(len(cfg.Scenarios)*len(cfg.Seeds), cfg.Workers, newArena,
		func(cell int, arena *protocol.Arena) (gridCellOut, error) {
			return runGridCell(cfg, scenarios, cell, arena, opt)
		},
		func(cell int, out gridCellOut) error {
			return emitGridCell(sink, Cell{Index: cell, Name: out.cell.Scenario, Seed: out.cell.Seed, Restored: out.restored}, &out.cell)
		})
}

// runGridCell computes one cell, or replays it without simulating: a
// checkpointed audit (restore set, no rows) or a cached prior result
// (rows included). Restore wins when a cell is in both —
// its rows were already delivered by the interrupted run.
func runGridCell(cfg ScenarioGridConfig, scenarios []adversary.Scenario, cell int, arena *protocol.Arena, opt StreamOptions) (gridCellOut, error) {
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
