package experiments

import (
	"errors"
	"fmt"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// ScenarioGridConfig parameterises the paper-scale robustness sweep the
// `cmd/scenario -full` path runs: a scenario×seed grid where every cell
// is one independent simulation at fig-scale node counts. Cells fan out
// through the deterministic run pool with a per-worker protocol.Arena,
// so Runner construction (topology, genesis, sortition cache) is
// amortised across the grid — the reuse that, together with
// copy-on-write ledger views, makes 500+-node grids affordable.
type ScenarioGridConfig struct {
	// Scenarios are the registered scenario names forming the grid's
	// first axis.
	Scenarios []string
	// Seeds form the second axis: each (scenario, seed) cell runs once
	// with that seed.
	Seeds []int64
	// Nodes is the network size per cell (the -full default is 500).
	Nodes int
	// Rounds is the number of simulated rounds per cell.
	Rounds int
	// Fanout is the gossip fan-out (paper: 5).
	Fanout int
	// Params overrides the protocol constants.
	Params protocol.Params
	// StakeDist draws per-node stakes (paper: U{1..50}).
	StakeDist stake.Distribution
	// CommonConfig supplies Workers, WeightBackend, WeightProfile,
	// Sparse and Sink — the execution-shaping knobs shared by every
	// sweep config. Sparse combined with absolute committee taus in
	// Params lets a grid cell run at populations far beyond the -full
	// default (e.g. 5000 nodes).
	CommonConfig
}

// FullScenarioGridConfig is the paper-scale default: every registered
// scenario at 500 nodes across three seeds.
func FullScenarioGridConfig() ScenarioGridConfig {
	return ScenarioGridConfig{
		Scenarios: adversary.Names(),
		Seeds:     []int64{1, 2, 3},
		Nodes:     500,
		Rounds:    12,
		Fanout:    5,
		Params:    protocol.DefaultParams(),
		StakeDist: stake.UniformInt{A: 1, B: 50},
	}
}

// GridCell is one completed (scenario, seed) simulation: per-round
// outcome fractions plus the cell's safety/liveness audit.
type GridCell struct {
	Scenario string
	Seed     int64
	// Final/Tentative/None are the per-round outcome fractions.
	Final, Tentative, None []float64
	// Audit is this cell's safety/liveness report.
	Audit adversary.Report
}

// Validate checks what the grid driver refuses before any cell runs:
// at least one scenario and one seed, >=10 nodes, >=1 round, and only
// registered scenario names.
func (cfg ScenarioGridConfig) Validate() error {
	if len(cfg.Scenarios) == 0 || len(cfg.Seeds) == 0 {
		return errors.New("experiments: grid needs at least one scenario and one seed")
	}
	if cfg.Nodes < 10 || cfg.Rounds < 1 {
		return errors.New("experiments: grid needs >=10 nodes and >=1 round")
	}
	for _, name := range cfg.Scenarios {
		if _, ok := adversary.Lookup(name); !ok {
			return fmt.Errorf("experiments: unknown scenario %q", name)
		}
	}
	return nil
}

// resolveGrid validates the grid config (applying the StakeDist
// default) and resolves every scenario up front so an unknown name
// fails before any cell burns cycles.
func resolveGrid(cfg *ScenarioGridConfig) ([]adversary.Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StakeDist == nil {
		cfg.StakeDist = stake.UniformInt{A: 1, B: 50}
	}
	scenarios := make([]adversary.Scenario, len(cfg.Scenarios))
	for i, name := range cfg.Scenarios {
		scenarios[i], _ = adversary.Lookup(name)
	}
	return scenarios, nil
}

// checkGridCell rejects a cell identity that cfg's grid does not hold:
// the index must lie in [0, cells) and the scenario and seed must be the
// ones that index carries on the scenario-major axis. Sinks that name
// files after a cell and loaders of checkpointed cells call it on every
// cell they did not compute themselves.
func checkGridCell(cfg *ScenarioGridConfig, index int, scenario string, seed int64) error {
	if cells := len(cfg.Scenarios) * len(cfg.Seeds); index < 0 || index >= cells {
		return fmt.Errorf("cell %d outside the grid's %d cells", index, cells)
	}
	if want := cfg.Scenarios[index/len(cfg.Seeds)]; scenario != want {
		return fmt.Errorf("cell %d names scenario %q, the grid has %q", index, scenario, want)
	}
	if want := cfg.Seeds[index%len(cfg.Seeds)]; seed != want {
		return fmt.Errorf("cell %d names seed %d, the grid has %d", index, seed, want)
	}
	return nil
}

// simulateGridCell runs one grid cell.
func simulateGridCell(cfg ScenarioGridConfig, scenarios []adversary.Scenario, cell int, arena *protocol.Arena) (GridCell, error) {
	si := cell / len(cfg.Seeds)
	spec := runSpec{
		setup: "scenario.setup", seed: cfg.Seeds[cell%len(cfg.Seeds)],
		nodes: cfg.Nodes, rounds: cfg.Rounds, fanout: cfg.Fanout,
		params: cfg.Params, stakes: cfg.StakeDist,
		scenario: &scenarios[si], CommonConfig: cfg.CommonConfig,
	}
	if cell != 0 {
		spec.Trace = nil // single-writer: first global cell only
	}
	out, _, err := simulate(spec, arena)
	out.Scenario = cfg.Scenarios[si]
	return out, err
}

// Table renders one cell's per-round outcome fractions.
func (c *GridCell) Table() *stats.Table {
	t := &stats.Table{}
	t.AddColumn("round", indexColumn(len(c.Final)))
	t.AddColumn("final", c.Final)
	t.AddColumn("tentative", c.Tentative)
	t.AddColumn("none", c.None)
	return t
}

// auditColumns appends one audit report's counters to the table column
// set, prefixing nothing: the caller controls row multiplicity by
// passing aligned slices.
func auditTableColumns(t *stats.Table, reports []adversary.Report) {
	col := func(name string, pick func(adversary.Report) float64) {
		vals := make([]float64, len(reports))
		for i, rep := range reports {
			vals[i] = pick(rep)
		}
		t.AddColumn(name, vals)
	}
	col("rounds", func(a adversary.Report) float64 { return float64(a.Rounds) })
	col("decided", func(a adversary.Report) float64 { return float64(a.Decided) })
	col("empty_decided", func(a adversary.Report) float64 { return float64(a.EmptyDecided) })
	col("stalls", func(a adversary.Report) float64 { return float64(a.Stalls) })
	col("max_stall_run", func(a adversary.Report) float64 { return float64(a.MaxStallRun) })
	col("safety_violations", func(a adversary.Report) float64 { return float64(a.SafetyViolations) })
	col("corruptions", func(a adversary.Report) float64 { return float64(a.Corruptions) })
	col("mean_final", func(a adversary.Report) float64 { return a.MeanFinalFrac })
	col("mean_none", func(a adversary.Report) float64 { return a.MeanNoneFrac })
	col("mean_desynced", func(a adversary.Report) float64 { return a.MeanDesynced })
}

// AuditTable renders one cell's audit as a one-row table with its seed,
// the per-cell CSV the -full driver writes.
func (c *GridCell) AuditTable() *stats.Table {
	t := &stats.Table{}
	t.AddColumn("seed", []float64{float64(c.Seed)})
	auditTableColumns(t, []adversary.Report{c.Audit})
	return t
}

// gridSummaryTable renders grid cells as one row each: the scenario's
// grid index, the seed, and the audit counters. cells carries global
// cell indices (scenario-major × seed) so a shard's partial summary and
// a merged full summary derive scenario_idx and seed identically to an
// unsharded run; reports is aligned with cells.
func gridSummaryTable(cfg ScenarioGridConfig, cells []int, reports []adversary.Report) *stats.Table {
	t := &stats.Table{}
	idx := make([]float64, len(cells))
	seeds := make([]float64, len(cells))
	for i, cell := range cells {
		idx[i] = float64(cell / len(cfg.Seeds))
		seeds[i] = float64(cfg.Seeds[cell%len(cfg.Seeds)])
	}
	t.AddColumn("scenario_idx", idx)
	t.AddColumn("seed", seeds)
	auditTableColumns(t, reports)
	return t
}
